package core

import (
	"fmt"
	"maps"

	"jayanti98/internal/moveplan"
	"jayanti98/internal/shmem"
)

// updateUP computes UP(X, r) for every process and register from the
// freshly executed round, applying the update rules of Section 5.3
// verbatim. It must be called after the round's Steps, MovePlan and Sigma
// are final, and before the round is appended to the run.
//
// Register rules (mutually exclusive by the phase structure: a move or swap
// on R clears R's Pset before Phase 5, so no SC on R succeeds in a round
// where R was moved into or swapped; likewise swaps overwrite moves):
//
//  1. Some process p performs a successful SC on R:
//     UP(R,r) = UP(p, r−1).
//  2. One or more processes swap R (p = the last of them):
//     UP(R,r) = UP(p, r−1).
//  3. No swap on R but some move into R:
//     UP(R,r) = UP(source(R,σ_r), r−1) ∪ ⋃_{q ∈ movers(R,σ_r)} UP(q, r−1).
//  4. Otherwise: UP(R,r) = UP(R, r−1).
//
// Process rules for p's (single) operation in round r:
//
//  1. LL or validate on R:        UP(p,r) = UP(p,r−1) ∪ UP(R,r−1).
//  2. move:                       UP(p,r) = UP(p,r−1).
//  3. first swap on R, no move into R:
//     UP(p,r) = UP(p,r−1) ∪ UP(R,r−1).
//  4. first swap on R, some move into R:
//     UP(p,r) = UP(p,r−1) ∪ UP(source(R,σ_r),r−1) ∪ ⋃_{q∈movers} UP(q,r−1).
//  5. swap on R immediately after q's swap:
//     UP(p,r) = UP(p,r−1) ∪ UP(q,r−1).
//  6. successful SC on R:         UP(p,r) = UP(p,r−1) ∪ UP(R,r−1).
//  7. unsuccessful SC on R:       UP(p,r) = UP(p,r−1) ∪ UP(R,r).
//  8. no shared-memory operation: UP(p,r) = UP(p,r−1).
func updateUP(run *AllRun, round *Round) {
	n := run.N
	if run.curUPProc == nil {
		run.curUPProc = make([]PidSet, n)
		for pid := range run.curUPProc {
			run.curUPProc[pid] = NewPidSet(pid)
		}
		run.curUPReg = make(map[int]PidSet)
		run.stepAt = make([]int32, n)
		run.prevSwap = make([]int32, n)
		run.regAt = make(map[int]int)
	}
	prevProc := run.curUPProc // UP(·, r−1), indexed by pid
	prevReg := func(reg int) PidSet {
		return run.curUPReg[reg] // the zero PidSet (empty) when never written
	}
	written := run.scanSteps(round)

	var tracker *moveplan.Tracker
	// moveUP(R) is the union of rule 3's UP-of-source and UPs-of-movers.
	moveUP := func(reg int) PidSet {
		if tracker == nil {
			tracker = moveplan.Eval(round.MovePlan, round.Sigma)
		}
		s := prevReg(tracker.Source(reg))
		for _, q := range tracker.Movers(reg) {
			s = unionShared(s, prevProc[q])
		}
		return s
	}

	// Registers. Unwritten registers keep UP(R, r−1) (rule 4); the sets of
	// written ones go to the overlay, since the process rules below still
	// read UP(·, r−1). Stored sets are immutable, so every rule shares the
	// previous round's set and unionShared clones only when a union
	// actually grows it.
	for i := range written {
		w := &written[i]
		switch {
		case w.sc >= 0: // rule 1
			w.up = prevProc[w.sc]
		case w.lastSwap >= 0: // rule 2
			w.up = prevProc[w.lastSwap]
		case w.moved: // rule 3
			w.up = moveUP(w.reg)
		}
	}
	// curReg is UP(R, r), needed by process rule 7.
	curReg := func(reg int) PidSet {
		if i, ok := run.regAt[reg]; ok {
			return written[i].up
		}
		return prevReg(reg)
	}

	// Processes. In NoHistory mode the sets are double-buffered: the
	// buffer two rounds old is overwritten in full. In history mode each
	// round keeps its own slice.
	upProc := run.nextUPProc
	if !run.NoHistory || upProc == nil {
		upProc = make([]PidSet, n)
	}
	for pid := 0; pid < n; pid++ {
		up := prevProc[pid]
		at := run.stepAt[pid]
		if at == 0 { // rule 8
			upProc[pid] = up
			continue
		}
		step := round.Steps[at-1]
		reg := step.Op.Reg
		switch step.Op.Kind {
		case shmem.OpLL, shmem.OpValidate: // rule 1
			up = unionShared(up, prevReg(reg))
		case shmem.OpMove: // rule 2
		case shmem.OpSwap:
			switch q := run.prevSwap[pid]; {
			case q >= 0: // rule 5
				up = unionShared(up, prevProc[q])
			case written[run.regAt[reg]].moved: // rule 4
				up = unionShared(up, moveUP(reg))
			default: // rule 3
				up = unionShared(up, prevReg(reg))
			}
		case shmem.OpSC:
			if step.Resp.OK { // rule 6
				up = unionShared(up, prevReg(reg))
			} else { // rule 7
				up = unionShared(up, curReg(reg))
			}
		}
		upProc[pid] = up
	}

	// Apply the overlay, then publish the round's sets.
	for _, w := range written {
		run.curUPReg[w.reg] = w.up
	}
	if run.NoHistory {
		run.nextUPProc = prevProc
	} else {
		round.UPProc = upProc
		round.UPReg = maps.Clone(run.curUPReg)
	}
	run.curUPProc = upProc

	// Incremental Lemma 5.1 check (so NoHistory runs can still report it).
	if run.lemma51Err == nil {
		run.lemma51Err = checkLemma51Round(n, round.R, upProc, written)
	}

	for _, s := range round.Steps {
		run.stepAt[s.Pid] = 0
	}
}

// regWrite is one register written in the round under update: the facts
// the register rules need, then UP(R, r) once computed.
type regWrite struct {
	reg      int
	sc       int  // pid of the successful SC on reg, or -1
	lastSwap int  // pid of the last swap on reg, or -1
	moved    bool // some process moved into reg
	up       PidSet
}

// scanSteps indexes the round's steps in one pass: run.stepAt[pid] becomes
// 1 + the index of pid's step (0 = no step), run.prevSwap[pid] the swapper
// immediately before pid on the same register (−1 for the first), and the
// returned overlay lists the registers whose value may have changed this
// round — targets of successful SCs, swaps and moves — in first-write
// order, with run.regAt mapping each to its overlay index. (At most one SC
// on a register succeeds per round: the first success clears the Pset,
// and every move or swap on the register in earlier phases clears it too.)
func (run *AllRun) scanSteps(round *Round) []regWrite {
	written := run.overlay[:0]
	clear(run.regAt)
	entry := func(reg int) *regWrite {
		i, ok := run.regAt[reg]
		if !ok {
			i = len(written)
			run.regAt[reg] = i
			written = append(written, regWrite{reg: reg, sc: -1, lastSwap: -1})
		}
		return &written[i]
	}
	for i, s := range round.Steps {
		run.stepAt[s.Pid] = int32(i + 1)
		switch s.Op.Kind {
		case shmem.OpSwap:
			w := entry(s.Op.Reg)
			run.prevSwap[s.Pid] = int32(w.lastSwap)
			w.lastSwap = s.Pid
		case shmem.OpMove:
			entry(s.Op.Reg).moved = true
		case shmem.OpSC:
			if s.Resp.OK {
				entry(s.Op.Reg).sc = s.Pid
			}
		}
	}
	run.overlay = written
	return written
}

// unionShared returns s ∪ o without mutating either: s itself when o adds
// nothing, otherwise a fresh clone. Both inputs may be shared, immutable
// UP sets.
func unionShared(s, o PidSet) PidSet {
	if o.SubsetOf(s) {
		return s
	}
	s = s.Clone()
	s.UnionWith(o)
	return s
}

// checkLemma51Round verifies |UP(X, r)| ≤ 4^r for the just-updated sets.
// Only registers written this round can have grown, so only they are
// checked (unwritten registers carry forward already-checked sets).
func checkLemma51Round(n, r int, upProc []PidSet, written []regWrite) error {
	bound := 1
	for i := 0; i < r && bound < n; i++ {
		bound *= 4
	}
	if bound >= n {
		return nil // vacuous: |UP| ≤ n always
	}
	reg, regUP := -1, PidSet{}
	for _, w := range written {
		if w.up.Len() > bound && (reg < 0 || w.reg < reg) {
			reg, regUP = w.reg, w.up
		}
	}
	return lemma51Violation(r, bound, upProc, reg, regUP)
}

// lemma51Violation reports a set over the bound 4^r: the lowest pid whose
// UP(p, r) is too large, else register reg, the caller's lowest offending
// register (regUP is its set, empty when no register offends).
func lemma51Violation(r, bound int, upProc []PidSet, reg int, regUP PidSet) error {
	for pid, up := range upProc {
		if up.Len() > bound {
			return fmt.Errorf("core: |UP(p%d, %d)| = %d exceeds 4^%d = %d", pid, r, up.Len(), r, bound)
		}
	}
	if regUP.Len() > bound {
		return fmt.Errorf("core: |UP(R%d, %d)| = %d exceeds 4^%d = %d", reg, r, regUP.Len(), r, bound)
	}
	return nil
}

// CheckLemma51 verifies Lemma 5.1 on a completed run: for every process or
// register X and every round r, |UP(X, r)| ≤ 4^r. It returns nil if the
// bound holds everywhere.
func CheckLemma51(run *AllRun) error {
	if run.NoHistory {
		// The bound was checked incrementally during the run.
		return run.lemma51Err
	}
	bound := 1 // 4^0
	for _, round := range run.Rounds {
		if bound >= run.N {
			break // 4^r ≥ n: the bound is vacuous (|UP| ≤ n always)
		}
		bound *= 4 // now 4^r for this round
		reg, regUP := -1, PidSet{}
		for g, up := range round.UPReg {
			if up.Len() > bound && (reg < 0 || g < reg) {
				reg, regUP = g, up
			}
		}
		if err := lemma51Violation(round.R, bound, round.UPProc, reg, regUP); err != nil {
			return err
		}
	}
	return nil
}
