// Package core implements the lower-bound machinery of Jayanti (PODC 1998):
// the round-based adversary scheduler of Figure 2, the UP-set update rules
// of Section 5.3, the (S,A)-run construction of Figure 3, the
// indistinguishability checker of Lemma 5.2, and the wakeup-problem
// specification checks behind Theorem 6.1.
//
// The adversary proceeds in rounds of five phases: (1) every live process
// performs local coin tosses until it terminates or is about to access
// shared memory; the rest are partitioned by their pending operation into
// the LL/validate group, the move group, the swap group, and the SC group;
// phases (2)–(5) then execute the groups in that order — LL/validate, swap
// and SC groups in pid order, the move group according to a secretive
// complete schedule (package moveplan). Executing a run this way yields,
// per round, everything Section 5 reasons about: who succeeded on which
// register, σ_r and f_r for the moves, end-of-round register and process
// states, and the UP sets.
package core

import (
	"errors"
	"fmt"

	"jayanti98/internal/machine"
	"jayanti98/internal/moveplan"
	"jayanti98/internal/shmem"
)

// tossGuard bounds coin tosses per process per round; a process exceeding
// it is assumed to be tossing forever (the run then has a non-terminating
// Phase 1, i.e. finitely many rounds, which the executor reports as an
// error because every algorithm we drive is supposed to be wait-free).
const tossGuard = 1 << 20

// ErrTooManyRounds reports that the run did not terminate within the round
// budget.
var ErrTooManyRounds = errors.New("core: round budget exhausted before all processes terminated")

// StepRecord is one shared-memory operation executed in a round.
type StepRecord struct {
	Pid  int
	Op   shmem.Op
	Resp shmem.Response
}

// String renders the step.
func (s StepRecord) String() string {
	return fmt.Sprintf("p%d: %v -> %v", s.Pid, s.Op, s.Resp)
}

// Round captures everything that happened in one round of a run, plus
// end-of-round snapshots.
type Round struct {
	// R is the 1-based round number.
	R int
	// Returned lists processes that entered a termination state during
	// Phase 1 of this round, with their return values.
	Returned map[int]shmem.Value
	// Groups holds the pids of G1 (LL/validate), G2 (move), G3 (swap) and
	// G4 (SC), each in scheduling order.
	Groups [4][]int
	// MovePlan is f_r: the move operation of each process in G2.
	MovePlan moveplan.Plan
	// Sigma is σ_r, the secretive complete schedule used for G2.
	Sigma moveplan.Schedule
	// Steps are the shared-memory operations of phases 2–5, in execution
	// order.
	Steps []StepRecord
	// MemSnap is the end-of-round register snapshot.
	MemSnap map[int]shmem.RegState
	// StateKeys maps each pid to its end-of-round machine history key
	// (the operational form of state(p, r, Σ)).
	StateKeys map[int]string
	// NumTosses maps each pid to numtosses(p, r, Σ).
	NumTosses map[int]int
	// UPProc (indexed by pid) and UPReg are the UP sets at the end of this
	// round. They are populated only for (All,A)-runs in history mode;
	// (S,A)-runs reuse the all-run's sets.
	UPProc []PidSet
	UPReg  map[int]PidSet
}

// AllRun is a complete (All,A)-run: the unique unextendable run permitted
// by the adversary scheduler under toss assignment A.
type AllRun struct {
	// Alg is the algorithm that was run.
	Alg machine.Algorithm
	// N is the number of processes.
	N int
	// TA is the toss assignment A.
	TA machine.TossAssignment
	// MemInit is the register initialization (nil for all-nil registers).
	MemInit func(reg int) shmem.Value
	// Rounds holds one record per executed round.
	Rounds []*Round
	// Returns maps each terminated pid to its return value.
	Returns map[int]shmem.Value
	// Steps maps each pid to its total shared-access step count.
	Steps map[int]int
	// FirstStepRound maps each pid to the round of its first shared-memory
	// step (absent if it never stepped).
	FirstStepRound map[int]int
	// NoHistory records that the run was executed without history digests,
	// end-of-round snapshots, or per-round UP sets (pure measurement mode);
	// such a run cannot be compared with CheckIndist or used with RunSub.
	NoHistory bool

	// curUPProc (indexed by pid) and curUPReg are the latest UP sets; in
	// history mode they are also recorded per round. In NoHistory mode
	// nextUPProc is the spare buffer the next round's process sets are
	// written into.
	curUPProc  []PidSet
	nextUPProc []PidSet
	curUPReg   map[int]PidSet
	// Per-round indexes of updateUP, reused across rounds: stepAt[pid] is
	// 1 + the index of pid's step in the round (0 = none), prevSwap[pid]
	// the swapper just before pid on its register, overlay the registers
	// written in the round and regAt their positions in it.
	stepAt   []int32
	prevSwap []int32
	overlay  []regWrite
	regAt    map[int]int
	// lemma51Err records the first incremental Lemma 5.1 violation.
	lemma51Err error
}

// Terminated reports whether every process terminated.
func (a *AllRun) Terminated() bool { return len(a.Returns) == a.N }

// MaxSteps returns t(R): the maximum shared-access step count over all
// processes, and the pid attaining it.
func (a *AllRun) MaxSteps() (steps, pid int) {
	pid = -1
	for p := 0; p < a.N; p++ {
		if s := a.Steps[p]; s > steps {
			steps, pid = s, p
		}
	}
	return steps, pid
}

// UPProcAt returns UP(p, r) for r ≥ 0 (r = 0 is the initial {p}).
// Per-round UP sets require history mode; in NoHistory mode only the final
// sets (FinalUPProc) exist.
func (a *AllRun) UPProcAt(pid, r int) PidSet {
	if r == 0 {
		return NewPidSet(pid)
	}
	if up := a.Rounds[r-1].UPProc; pid < len(up) {
		return up[pid]
	}
	return PidSet{}
}

// UPRegAt returns UP(R, r) for r ≥ 0 (r = 0 is the empty set).
func (a *AllRun) UPRegAt(reg, r int) PidSet {
	if r == 0 {
		return NewPidSet()
	}
	if s, ok := a.Rounds[r-1].UPReg[reg]; ok {
		return s
	}
	return NewPidSet()
}

// FinalUPProc returns UP(p, r_final): p's knowledge set at the end of the
// run. Available in both history and NoHistory modes.
func (a *AllRun) FinalUPProc(pid int) PidSet {
	if pid < len(a.curUPProc) {
		return a.curUPProc[pid]
	}
	return NewPidSet(pid)
}

// Config tunes a run.
type Config struct {
	// MaxRounds bounds the number of rounds (default 8n + 64).
	MaxRounds int
	// MemInit initializes register values (default: all nil).
	MemInit func(reg int) shmem.Value
	// NoHistory disables per-process history digests and end-of-round
	// register snapshots. Measurement sweeps over large n use it: digesting
	// every delivered value costs as much as the run itself. Runs intended
	// for RunSub/CheckIndist must keep history on.
	NoHistory bool
}

func (c Config) maxRounds(n int) int {
	if c.MaxRounds > 0 {
		return c.MaxRounds
	}
	return 8*n + 64
}

// RunAll executes the (All,A)-run of alg for n processes under toss
// assignment ta, recording per-round history and UP sets. It returns an
// error if a process crashes or the round budget is exhausted (wait-free
// algorithms must terminate; see Config.MaxRounds).
func RunAll(alg machine.Algorithm, n int, ta machine.TossAssignment, cfg Config) (*AllRun, error) {
	var opts []shmem.Option
	if cfg.MemInit != nil {
		opts = append(opts, shmem.WithInit(cfg.MemInit))
	}
	mem := shmem.New(opts...)
	ms := machine.StartAll(alg, n)
	defer machine.CloseAll(ms)

	run := &AllRun{
		Alg:            alg,
		N:              n,
		TA:             ta,
		MemInit:        cfg.MemInit,
		Returns:        make(map[int]shmem.Value, n),
		Steps:          make(map[int]int, n),
		FirstStepRound: make(map[int]int, n),
		NoHistory:      cfg.NoHistory,
	}
	if cfg.NoHistory {
		for _, m := range ms {
			m.DisableHistory()
		}
	}

	for r := 1; ; r++ {
		if r > cfg.maxRounds(n) {
			return run, fmt.Errorf("%w: %s with n=%d after %d rounds", ErrTooManyRounds, alg.Name(), n, r-1)
		}
		round := &Round{
			R:        r,
			Returned: make(map[int]shmem.Value),
			MovePlan: make(moveplan.Plan),
		}

		// Phase 1: drain coin tosses; collect returns; partition the rest.
		live, err := phase1(ms, nil, ta, round, run.Returns)
		if err != nil {
			return run, err
		}
		if len(live) > 0 {
			partition(ms, live, round)
			round.Steps = make([]StepRecord, 0, len(live))
			execRound(mem, ms, round, run.Steps) // phases 2–5
			for _, pid := range live {
				if _, ok := run.FirstStepRound[pid]; !ok {
					run.FirstStepRound[pid] = r
				}
			}
		}

		// End-of-round snapshots and UP updates. A round with no live
		// processes is still recorded when Phase 1 produced returns, so
		// that per-round histories cover every return.
		if len(live) > 0 || len(round.Returned) > 0 {
			if !cfg.NoHistory {
				round.MemSnap = mem.Snapshot()
				round.StateKeys = make(map[int]string, n)
				round.NumTosses = make(map[int]int, n)
				for _, m := range ms {
					round.StateKeys[m.ID()] = m.HistoryKey()
					round.NumTosses[m.ID()] = m.NumTosses()
				}
			}
			updateUP(run, round)
			if cfg.NoHistory {
				// Measurement mode: drop the heavy per-round payloads once
				// the UP update has consumed them (memory would otherwise
				// grow as rounds × n × |UP|).
				round.Steps = nil
				round.Groups = [4][]int{}
				round.MovePlan = nil
				round.Sigma = nil
			}
			run.Rounds = append(run.Rounds, round)
		}
		if len(live) == 0 {
			// All processes terminated; rounds r+1, r+2, ... are empty.
			break
		}
	}
	return run, nil
}

// phase1 drains tosses for every machine whose pid passes the filter
// (nil filter = all machines), recording returns. It returns the pids that
// are live (not yet terminated), in increasing order.
func phase1(ms []*machine.Machine, only *PidSet, ta machine.TossAssignment, round *Round, returns map[int]shmem.Value) ([]int, error) {
	var live []int
	for _, m := range ms {
		pid := m.ID()
		if only != nil && !only.Contains(pid) {
			continue
		}
		if _, done := returns[pid]; done {
			continue
		}
		tosses := 0
	drain:
		for {
			switch a := m.Peek(); a.Kind {
			case machine.ActToss:
				if tosses++; tosses > tossGuard {
					return nil, fmt.Errorf("core: process %d exceeded %d coin tosses in round %d phase 1", pid, tossGuard, round.R)
				}
				m.DeliverToss(ta(pid, m.NumTosses()))
			case machine.ActCrash:
				return nil, fmt.Errorf("core: process %d crashed in round %d: %w", pid, round.R, m.Crashed())
			case machine.ActReturn:
				round.Returned[pid] = a.Ret
				returns[pid] = a.Ret
				break drain
			case machine.ActOp:
				live = append(live, pid)
				break drain
			}
		}
	}
	return live, nil
}

// partition splits the live pids into G1..G4 by pending operation kind and
// fills the round's move plan and secretive schedule.
func partition(ms []*machine.Machine, live []int, round *Round) {
	for _, pid := range live {
		op := ms[pid].Peek().Op
		switch op.Kind {
		case shmem.OpLL, shmem.OpValidate:
			round.Groups[0] = append(round.Groups[0], pid)
		case shmem.OpMove:
			round.Groups[1] = append(round.Groups[1], pid)
			round.MovePlan[pid] = moveplan.Move{Src: op.Src, Dst: op.Reg}
		case shmem.OpSwap:
			round.Groups[2] = append(round.Groups[2], pid)
		case shmem.OpSC:
			round.Groups[3] = append(round.Groups[3], pid)
		}
	}
	round.Sigma = moveplan.Secretive(round.MovePlan)
	// The move group executes in σ_r order.
	round.Groups[1] = []int(round.Sigma)
}

// execRound performs phases 2–5: each group's processes execute their one
// pending operation in the group's scheduling order.
func execRound(mem *shmem.Memory, ms []*machine.Machine, round *Round, steps map[int]int) {
	for _, group := range round.Groups {
		for _, pid := range group {
			m := ms[pid]
			op := m.Peek().Op
			resp := mem.Apply(pid, op)
			round.Steps = append(round.Steps, StepRecord{Pid: pid, Op: op, Resp: resp})
			steps[pid]++
			m.DeliverOpResponse(resp)
		}
	}
}
