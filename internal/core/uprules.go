package core

import (
	"fmt"

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
	r := round.R
	if run.curUPProc == nil {
		run.curUPProc = make(map[int]PidSet, run.N)
		run.curUPReg = make(map[int]PidSet)
	}
	prevProc := func(pid int) PidSet {
		if s, ok := run.curUPProc[pid]; ok {
			return s
		}
		return NewPidSet(pid)
	}
	prevReg := func(reg int) PidSet {
		if s, ok := run.curUPReg[reg]; ok {
			return s
		}
		return NewPidSet()
	}

	tracker := moveplan.Eval(round.MovePlan, round.Sigma)
	// moveUP(R) is the union of rule 3's UP-of-source and UPs-of-movers.
	moveUP := func(reg int) PidSet {
		s := prevReg(tracker.Source(reg))
		for _, q := range tracker.Movers(reg) {
			s = unionShared(s, prevProc(q))
		}
		return s
	}

	// Registers. Copy the previous round's sets forward (rule 4). Stored
	// sets are immutable, so every rule shares the previous round's set
	// and unionShared clones only when a union actually grows it.
	upReg := make(map[int]PidSet, len(run.curUPReg))
	for reg, s := range run.curUPReg {
		upReg[reg] = s
	}
	written := writtenRegisters(round)
	for _, reg := range written {
		switch p := round.successfulSC(reg); {
		case p >= 0: // rule 1
			upReg[reg] = prevProc(p)
		default:
			if sw := round.swappers(reg); len(sw) > 0 { // rule 2
				upReg[reg] = prevProc(sw[len(sw)-1])
			} else if round.movedInto(reg) { // rule 3
				upReg[reg] = moveUP(reg)
			}
		}
	}
	if !run.NoHistory {
		round.UPReg = upReg
	}
	// NOTE: run.curUPReg is replaced only after the process rules below,
	// which still need UP(·, r−1) through prevReg.

	// curReg is UP(R, r), needed by process rule 7.
	curReg := func(reg int) PidSet {
		if s, ok := upReg[reg]; ok {
			return s
		}
		return NewPidSet()
	}

	// Processes.
	stepOf := make(map[int]StepRecord, len(round.Steps))
	for _, s := range round.Steps {
		stepOf[s.Pid] = s
	}
	upProc := make(map[int]PidSet, run.N)
	for pid := 0; pid < run.N; pid++ {
		up := prevProc(pid)
		step, acted := stepOf[pid]
		if !acted { // rule 8
			upProc[pid] = up
			continue
		}
		reg := step.Op.Reg
		switch step.Op.Kind {
		case shmem.OpLL, shmem.OpValidate: // rule 1
			up = unionShared(up, prevReg(reg))
		case shmem.OpMove: // rule 2
		case shmem.OpSwap:
			sw := round.swappers(reg)
			switch {
			case sw[0] != pid: // rule 5
				up = unionShared(up, prevProc(prevSwapper(sw, pid)))
			case round.movedInto(reg): // rule 4
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
	if !run.NoHistory {
		round.UPProc = upProc
	}
	run.curUPProc = upProc
	run.curUPReg = upReg

	// Incremental Lemma 5.1 check (so NoHistory runs can still report it).
	if run.lemma51Err == nil {
		run.lemma51Err = checkLemma51Round(run.N, r, upProc, upReg, written)
	}
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
func checkLemma51Round(n, r int, upProc map[int]PidSet, upReg map[int]PidSet, written []int) error {
	bound := 1
	for i := 0; i < r && bound < n; i++ {
		bound *= 4
	}
	if bound >= n {
		return nil // vacuous: |UP| ≤ n always
	}
	for pid, up := range upProc {
		if up.Len() > bound {
			return fmt.Errorf("core: |UP(p%d, %d)| = %d exceeds 4^%d = %d", pid, r, up.Len(), r, bound)
		}
	}
	for _, reg := range written {
		if up, ok := upReg[reg]; ok && up.Len() > bound {
			return fmt.Errorf("core: |UP(R%d, %d)| = %d exceeds 4^%d = %d", reg, r, up.Len(), r, bound)
		}
	}
	return nil
}

// writtenRegisters returns the registers whose value may have changed this
// round: targets of successful SCs, swaps, and moves.
func writtenRegisters(round *Round) []int {
	seen := make(map[int]bool)
	var regs []int
	add := func(reg int) {
		if !seen[reg] {
			seen[reg] = true
			regs = append(regs, reg)
		}
	}
	for _, s := range round.Steps {
		switch s.Op.Kind {
		case shmem.OpSwap, shmem.OpMove:
			add(s.Op.Reg)
		case shmem.OpSC:
			if s.Resp.OK {
				add(s.Op.Reg)
			}
		}
	}
	return regs
}

// prevSwapper returns the swapper immediately before pid in the round's
// swap order on one register.
func prevSwapper(sw []int, pid int) int {
	for i, p := range sw {
		if p == pid {
			if i == 0 {
				panic(fmt.Sprintf("core: pid %d is the first swapper", pid))
			}
			return sw[i-1]
		}
	}
	panic(fmt.Sprintf("core: pid %d not among swappers %v", pid, sw))
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
		for pid, up := range round.UPProc {
			if up.Len() > bound {
				return fmt.Errorf("core: |UP(p%d, %d)| = %d exceeds 4^%d = %d", pid, round.R, up.Len(), round.R, bound)
			}
		}
		for reg, up := range round.UPReg {
			if up.Len() > bound {
				return fmt.Errorf("core: |UP(R%d, %d)| = %d exceeds 4^%d = %d", reg, round.R, up.Len(), round.R, bound)
			}
		}
	}
	return nil
}
