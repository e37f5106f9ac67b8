package core

import (
	"fmt"
	"strings"
	"testing"

	"jayanti98/internal/machine"
	"jayanti98/internal/moveplan"
	"jayanti98/internal/shmem"
	"jayanti98/internal/universal"
	"jayanti98/internal/wakeup"
)

// Targeted scenarios for the less-travelled update rules of Section 5.3.
// Each test constructs an algorithm whose round structure is known exactly
// and asserts the resulting UP sets verbatim.

// pick builds an algorithm where each pid runs its own script.
func pick(scripts ...machine.Body) machine.Algorithm {
	return machine.New("scenario", func(e *machine.Env) shmem.Value {
		return scripts[e.ID()](e)
	})
}

func TestUPRule4FirstSwapperSeesMoversAndSource(t *testing.T) {
	// Round 1: p0 swaps R10 (announcing itself), p1 swaps R20.
	// Round 2: p0 moves R10 → R0 while p1 swaps R0.
	// The move phase precedes the swap phase, so p1 is the first swapper
	// on R0 with a move into it in the same round: process rule 4 gives
	// UP(p1,2) = {p1} ∪ UP(R10,1) ∪ UP(p0,1) = {p0, p1}.
	alg := pick(
		func(e *machine.Env) shmem.Value { // p0
			e.Swap(10, "a")
			e.Move(10, 0)
			return 0
		},
		func(e *machine.Env) shmem.Value { // p1
			e.Swap(20, "b")
			e.Swap(0, "c")
			return 0
		},
	)
	run := mustRunAll(t, alg, 2)
	if up := run.UPProcAt(1, 2); !up.Equal(NewPidSet(0, 1)) {
		t.Fatalf("UP(p1,2) = %v, want {p0, p1}", up)
	}
	// Register rule 2: the swap overwrites the move; UP(R0,2) = UP(p1,1).
	if up := run.UPRegAt(0, 2); !up.Equal(NewPidSet(1)) {
		t.Fatalf("UP(R0,2) = %v, want {p1}", up)
	}
}

func TestUPRule7FailedSCLearnsFromRoundRSwap(t *testing.T) {
	// Round 1: both processes LL R0. Round 2: p0 swaps R0 (phase 4)
	// invalidating p1's link, then p1's SC fails (phase 5). Rule 7:
	// UP(p1,2) = {p1} ∪ UP(R0,2) = {p1} ∪ UP(p0,1) = {p0, p1}.
	alg := pick(
		func(e *machine.Env) shmem.Value { // p0
			e.LL(0)
			e.Swap(0, "x")
			return 0
		},
		func(e *machine.Env) shmem.Value { // p1
			e.LL(0)
			ok, _ := e.SC(0, "y")
			if ok {
				return "unexpected-success"
			}
			return 0
		},
	)
	run := mustRunAll(t, alg, 2)
	if run.Returns[1] != 0 {
		t.Fatalf("p1 returned %v; its SC must fail after p0's swap", run.Returns[1])
	}
	if up := run.UPProcAt(1, 2); !up.Equal(NewPidSet(0, 1)) {
		t.Fatalf("UP(p1,2) = %v, want {p0, p1}", up)
	}
}

func TestUPRule7FailedSCLearnsFromRoundRMove(t *testing.T) {
	// Round 1: p0 swaps R5, p1 LLs R0. Round 2: p0 moves R5 → R0 (phase 3,
	// clearing R0's Pset), p1's SC on R0 fails (phase 5). Rule 7 via
	// register rule 3: UP(p1,2) = {p1} ∪ UP(R5,1) ∪ UP(p0,1) = {p0, p1}.
	alg := pick(
		func(e *machine.Env) shmem.Value { // p0
			e.Swap(5, "v")
			e.Move(5, 0)
			return 0
		},
		func(e *machine.Env) shmem.Value { // p1
			e.LL(0)
			ok, _ := e.SC(0, "y")
			if ok {
				return "unexpected-success"
			}
			return 0
		},
	)
	run := mustRunAll(t, alg, 2)
	if run.Returns[1] != 0 {
		t.Fatalf("p1 returned %v; its SC must fail after the move into R0", run.Returns[1])
	}
	if up := run.UPProcAt(1, 2); !up.Equal(NewPidSet(0, 1)) {
		t.Fatalf("UP(p1,2) = %v, want {p0, p1}", up)
	}
	if up := run.UPRegAt(0, 2); !up.Equal(NewPidSet(0)) {
		t.Fatalf("UP(R0,2) = %v, want {p0} (source was p0's register)", up)
	}
}

func TestUPRuleValidateReadsRegisterKnowledge(t *testing.T) {
	// Round 1: p0 swaps R0 (so UP(R0,1) = {p0}); p1 idles on a private
	// register. Round 2: p1 validates R0 — rule 1 applies to validate just
	// as to LL: UP(p1,2) = {p1} ∪ UP(R0,1) = {p0, p1}.
	alg := pick(
		func(e *machine.Env) shmem.Value { // p0
			e.Swap(0, "x")
			return 0
		},
		func(e *machine.Env) shmem.Value { // p1
			e.Swap(9, "w") // keep round alignment: one op in round 1
			e.Validate(0)
			return 0
		},
	)
	run := mustRunAll(t, alg, 2)
	if up := run.UPProcAt(1, 2); !up.Equal(NewPidSet(0, 1)) {
		t.Fatalf("UP(p1,2) = %v, want {p0, p1}", up)
	}
}

func TestUPTwoHopMoveChainRevealsTwoMovers(t *testing.T) {
	// Round 1: p0 swaps R10; p1 and p2 swap private registers.
	// Round 2: p0 moves R10 → R11 while p1 idles (validate); p2 idles.
	// Round 3: p1 moves R11 → R12 — its source's movers chain is (p0), so
	// after round 3, movers(R12) = (p0, p1) and
	// UP(R12,3) = UP(R10,1... source) ∪ UP(p0,2) ∪ UP(p1,2) ⊇ {p0, p1}.
	alg := pick(
		func(e *machine.Env) shmem.Value { // p0
			e.Swap(10, "v")
			e.Move(10, 11)
			return 0
		},
		func(e *machine.Env) shmem.Value { // p1
			e.Swap(21, "a")
			e.Validate(21)
			e.Move(11, 12)
			return 0
		},
		func(e *machine.Env) shmem.Value { // p2
			e.Swap(22, "b")
			return 0
		},
	)
	run := mustRunAll(t, alg, 3)
	up := run.UPRegAt(12, 3)
	want := NewPidSet(0, 1)
	if !want.SubsetOf(up) {
		t.Fatalf("UP(R12,3) = %v, want ⊇ {p0, p1}", up)
	}
	if up.Contains(2) {
		t.Fatalf("UP(R12,3) = %v must not contain the uninvolved p2", up)
	}
	// The value moved two hops: R12 now holds R10's original value.
	last := run.Rounds[len(run.Rounds)-1]
	if got := last.MemSnap[12].Val; got != "v" {
		t.Fatalf("R12 = %v, want v", got)
	}
}

func TestFinalUPProcMatchesLastRound(t *testing.T) {
	run := mustRunAll(t, setRegisterWakeup, 5)
	for pid := 0; pid < 5; pid++ {
		if !run.FinalUPProc(pid).Equal(run.UPProcAt(pid, len(run.Rounds))) {
			t.Fatalf("FinalUPProc(p%d) disagrees with last round", pid)
		}
	}
}

func TestNoHistoryRunsRejectSubRunsButKeepChecks(t *testing.T) {
	run, err := RunAll(setRegisterWakeup, 6, machine.ZeroTosses, Config{NoHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSub(run, NewPidSet(0)); err == nil {
		t.Fatal("RunSub must reject NoHistory runs")
	}
	if err := CheckLemma51(run); err != nil {
		t.Fatalf("incremental Lemma 5.1 must still work: %v", err)
	}
	if err := CheckWakeupRun(run); err != nil {
		t.Fatalf("spec check must still work: %v", err)
	}
	if err := VerifyTheorem61(run); err != nil {
		t.Fatalf("theorem check must still work: %v", err)
	}
	// Per-round payloads must have been dropped.
	for _, round := range run.Rounds {
		if round.Steps != nil || round.UPProc != nil {
			t.Fatal("NoHistory round kept heavy payloads")
		}
	}
}

// TestUnionSharedClonesOnlyOnGrowth: unionShared hands back its first
// argument (no copy) when the union adds nothing, and otherwise a fresh set,
// leaving both inputs — shared, immutable UP sets — untouched.
func TestUnionSharedClonesOnlyOnGrowth(t *testing.T) {
	s, sub, other := NewPidSet(1, 2, 70), NewPidSet(2), NewPidSet(3, 130)
	if got := unionShared(s, sub); &got.words[0] != &s.words[0] || !got.Equal(s) {
		t.Fatalf("unionShared(s, subset) = %v, want s itself", got)
	}
	got := unionShared(s, other)
	if !got.Equal(NewPidSet(1, 2, 3, 70, 130)) || got.Len() != 5 {
		t.Fatalf("unionShared(s, other) = %v", got)
	}
	if &got.words[0] == &s.words[0] || !s.Equal(NewPidSet(1, 2, 70)) || !other.Equal(NewPidSet(3, 130)) {
		t.Fatalf("unionShared mutated or aliased an input: s=%v other=%v", s, other)
	}
}

// upReference is the map-based implementation of the Section 5.3 update
// rules that updateUP replaced, kept verbatim as the oracle of
// TestUpdateUPMatchesMapReference: it rescans the round's steps for every
// register and process and keeps every UP set in a map. It consumes a
// history-mode run's rounds after the fact.
type upReference struct {
	n       int
	upProc  map[int]PidSet
	upReg   map[int]PidSet
	lemma51 error
}

func newUPReference(n int) *upReference {
	return &upReference{n: n, upProc: make(map[int]PidSet, n), upReg: make(map[int]PidSet)}
}

// update applies round's rules and returns UP(·, r) for processes and
// registers.
func (ref *upReference) update(round *Round) (map[int]PidSet, map[int]PidSet) {
	r := round.R
	prevProc := func(pid int) PidSet {
		if s, ok := ref.upProc[pid]; ok {
			return s
		}
		return NewPidSet(pid)
	}
	prevReg := func(reg int) PidSet {
		if s, ok := ref.upReg[reg]; ok {
			return s
		}
		return NewPidSet()
	}

	tracker := moveplan.Eval(round.MovePlan, round.Sigma)
	moveUP := func(reg int) PidSet {
		s := prevReg(tracker.Source(reg))
		for _, q := range tracker.Movers(reg) {
			s = unionShared(s, prevProc(q))
		}
		return s
	}

	upReg := make(map[int]PidSet, len(ref.upReg))
	for reg, s := range ref.upReg {
		upReg[reg] = s
	}
	written := writtenRegistersReference(round)
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
	curReg := func(reg int) PidSet {
		if s, ok := upReg[reg]; ok {
			return s
		}
		return NewPidSet()
	}

	stepOf := make(map[int]StepRecord, len(round.Steps))
	for _, s := range round.Steps {
		stepOf[s.Pid] = s
	}
	upProc := make(map[int]PidSet, ref.n)
	for pid := 0; pid < ref.n; pid++ {
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
				up = unionShared(up, prevProc(prevSwapperReference(sw, pid)))
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
	ref.upProc = upProc
	ref.upReg = upReg
	if ref.lemma51 == nil {
		ref.lemma51 = checkLemma51RoundReference(ref.n, r, upProc, upReg, written)
	}
	return upProc, upReg
}

func checkLemma51RoundReference(n, r int, upProc map[int]PidSet, upReg map[int]PidSet, written []int) error {
	bound := 1
	for i := 0; i < r && bound < n; i++ {
		bound *= 4
	}
	if bound >= n {
		return nil
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

func writtenRegistersReference(round *Round) []int {
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

func prevSwapperReference(sw []int, pid int) int {
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

// successfulSC returns the pid that performed a successful SC on reg in
// this round, or -1. (At most one SC on a register succeeds per round: the
// first success clears the Pset and every move or swap on the register in
// earlier phases clears it too.)
func (r *Round) successfulSC(reg int) int {
	for _, s := range r.Steps {
		if s.Op.Kind == shmem.OpSC && s.Op.Reg == reg && s.Resp.OK {
			return s.Pid
		}
	}
	return -1
}

// swappers returns the pids that performed swap on reg this round, in
// execution order.
func (r *Round) swappers(reg int) []int {
	var out []int
	for _, s := range r.Steps {
		if s.Op.Kind == shmem.OpSwap && s.Op.Reg == reg {
			out = append(out, s.Pid)
		}
	}
	return out
}

// movedInto reports whether any process performed a move into reg this
// round.
func (r *Round) movedInto(reg int) bool {
	for _, mv := range r.MovePlan {
		if mv.Dst == reg {
			return true
		}
	}
	return false
}

// moveChain runs the chain move plan of Section 4 (experiment E9) under
// the adversary: p_i announces itself in R_i and moves R_i into R_{i+1},
// twice, reading R_{i+1} in between, so every round's move group is the
// chain p_0 → p_1 → … and the secretive schedule has work to do.
func moveChain() machine.Algorithm {
	return machine.New("move-chain", func(e *machine.Env) shmem.Value {
		id := e.ID()
		e.Swap(id, int64(id))
		e.Move(id, id+1)
		v := e.Read(id + 1)
		e.Swap(id, v)
		e.Move(id, id+1)
		return e.Read(id + 1)
	})
}

// TestUpdateUPMatchesMapReference runs every algorithm at several sizes in
// both modes and holds the slice-backed updateUP to the map-based
// reference: the same per-round sets in history mode, the same final
// process sets in NoHistory mode, and the same Lemma 5.1 verdict in both.
func TestUpdateUPMatchesMapReference(t *testing.T) {
	coin := func(pid, j int) int64 { return int64(pid*7+j*3) % 2 }
	groupUpdate := func(n int) machine.Algorithm {
		spec := wakeup.Reductions()[0] // fetch&increment, an E3 reduction
		return spec.Build(universal.NewGroupUpdate(spec.Type(n), n, 0))
	}
	cases := []struct {
		name string
		mk   func(n int) machine.Algorithm
		ta   machine.TossAssignment
	}{
		{"set-register", func(int) machine.Algorithm { return wakeup.SetRegister() }, machine.ZeroTosses},
		{"double-register", func(int) machine.Algorithm { return wakeup.DoubleRegister() }, coin},
		{"counting-network", wakeup.CountingNetwork, machine.ZeroTosses},
		{"cheater", func(int) machine.Algorithm { return wakeup.Cheater() }, machine.ZeroTosses},
		{"group-update", groupUpdate, machine.ZeroTosses},
		{"move-chain", func(int) machine.Algorithm { return moveChain() }, machine.ZeroTosses},
		{"move-courier", func(int) machine.Algorithm { return wakeup.MoveCourier() }, machine.ZeroTosses},
		{"random", func(n int) machine.Algorithm { return randomAlgorithm(int64(n), 12, 5) }, coin},
	}
	for _, c := range cases {
		for _, n := range []int{4, 16, 64} {
			t.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(t *testing.T) {
				hist, err := RunAll(c.mk(n), n, c.ta, Config{})
				if err != nil {
					t.Fatal(err)
				}
				ref := newUPReference(n)
				for _, round := range hist.Rounds {
					wantProc, wantReg := ref.update(round)
					if len(round.UPProc) != n {
						t.Fatalf("round %d: %d process sets, want %d", round.R, len(round.UPProc), n)
					}
					for pid, up := range round.UPProc {
						if !up.Equal(wantProc[pid]) {
							t.Fatalf("round %d: UP(p%d) = %v, reference %v", round.R, pid, up, wantProc[pid])
						}
					}
					if len(round.UPReg) != len(wantReg) {
						t.Fatalf("round %d: %d register sets, reference %d", round.R, len(round.UPReg), len(wantReg))
					}
					for reg, want := range wantReg {
						if up, ok := round.UPReg[reg]; !ok || !up.Equal(want) {
							t.Fatalf("round %d: UP(R%d) = %v (present %v), reference %v", round.R, reg, up, ok, want)
						}
					}
				}
				if got := CheckLemma51(hist); (got == nil) != (ref.lemma51 == nil) {
					t.Fatalf("history mode: Lemma 5.1 verdict %v, reference %v", got, ref.lemma51)
				}

				fast, err := RunAll(c.mk(n), n, c.ta, Config{NoHistory: true})
				if err != nil {
					t.Fatal(err)
				}
				if len(fast.Rounds) != len(hist.Rounds) {
					t.Fatalf("NoHistory run has %d rounds, history run %d", len(fast.Rounds), len(hist.Rounds))
				}
				for pid := 0; pid < n; pid++ {
					if got, want := fast.FinalUPProc(pid), ref.upProc[pid]; !got.Equal(want) {
						t.Fatalf("NoHistory: final UP(p%d) = %v, reference %v", pid, got, want)
					}
				}
				if got := CheckLemma51(fast); (got == nil) != (ref.lemma51 == nil) {
					t.Fatalf("NoHistory mode: Lemma 5.1 verdict %v, reference %v", got, ref.lemma51)
				}
			})
		}
	}
}

// TestLemma51ErrorNamesLowestOffender: when several sets break the bound,
// the error names the lowest pid, and without a process violation the
// lowest register — in the incremental and the after-the-fact check alike.
func TestLemma51ErrorNamesLowestOffender(t *testing.T) {
	big := NewPidSet(0, 1, 2, 3, 4, 5)
	small := NewPidSet(0)
	procs := []PidSet{small, small, small, big, small, big, small, small} // p3 and p5 break 4^1
	regs := map[int]PidSet{40: big, 7: big, 3: small, 12: big}
	var written []regWrite
	for _, reg := range []int{40, 7, 3, 12} {
		written = append(written, regWrite{reg: reg, up: regs[reg]})
	}
	run := &AllRun{N: 8, Rounds: []*Round{{R: 1, UPProc: procs, UPReg: regs}}}
	for i := 0; i < 20; i++ { // map order differs between iterations
		for _, err := range []error{checkLemma51Round(8, 1, procs, written), CheckLemma51(run)} {
			if err == nil || !strings.Contains(err.Error(), "UP(p3, 1)") {
				t.Fatalf("process violation reported as %v, want p3", err)
			}
		}
	}
	quiet := make([]PidSet, 8)
	for pid := range quiet {
		quiet[pid] = NewPidSet(pid)
	}
	run.Rounds[0].UPProc = quiet
	for i := 0; i < 20; i++ {
		for _, err := range []error{checkLemma51Round(8, 1, quiet, written), CheckLemma51(run)} {
			if err == nil || !strings.Contains(err.Error(), "UP(R7, 1)") {
				t.Fatalf("register violation reported as %v, want R7", err)
			}
		}
	}
}
