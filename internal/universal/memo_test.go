package universal_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"jayanti98/internal/linz"
	"jayanti98/internal/llsc"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/objtype"
	"jayanti98/internal/shmem"
	"jayanti98/internal/universal"
)

// memoCase is one sequential type with a generator of the operation a
// process issues.
type memoCase struct {
	name string
	typ  objtype.Type
	op   func(rng *rand.Rand, pid int) objtype.Op
}

// memoCases covers every sweep type plus containers and numeric types
// whose operations carry arguments, so that records differing only in
// their argument are exercised.
func memoCases(t *testing.T, n int) []memoCase {
	var cases []memoCase
	for _, name := range lowerbound.SweepTypes() {
		st, err := lowerbound.SweepTypeFor(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, memoCase{name, st.New(n), func(_ *rand.Rand, pid int) objtype.Op { return st.Op(n, pid) }})
	}
	container := func(insert, remove string) func(*rand.Rand, int) objtype.Op {
		return func(rng *rand.Rand, pid int) objtype.Op {
			if rng.Intn(2) == 0 {
				return objtype.Op{Name: insert, Arg: rng.Intn(4)}
			}
			return objtype.Op{Name: remove}
		}
	}
	cases = append(cases,
		memoCase{"wakeup-queue", objtype.NewWakeupQueue(), container(objtype.OpEnqueue, objtype.OpDequeue)},
		memoCase{"wakeup-stack", objtype.NewWakeupStack(), container(objtype.OpPush, objtype.OpPop)},
		memoCase{"queue", objtype.NewEmptyQueue(), container(objtype.OpEnqueue, objtype.OpDequeue)},
		memoCase{"fetch&add", objtype.NewFetchAdd(8), func(rng *rand.Rand, _ int) objtype.Op {
			return objtype.Op{Name: objtype.OpFetchAdd, Arg: fmt.Sprintf("%x", rng.Intn(3))}
		}},
	)
	return cases
}

// randomLog builds a log of length l in which each process's records carry
// consecutive sequence numbers.
func randomLog(rng *rand.Rand, c memoCase, n, l int) universal.Log {
	next := make([]int, n)
	log := make(universal.Log, l)
	for i := range log {
		pid := rng.Intn(n)
		log[i] = universal.Record{Pid: pid, Seq: next[pid], Op: c.op(rng, pid)}
		next[pid]++
	}
	return log
}

// checkMemo asks the memo for record idx of log and compares the answer
// with a fresh objtype.Replay of the same prefix.
func checkMemo(t *testing.T, m *universal.ReplayMemo, c memoCase, n int, log universal.Log, idx int, what string) {
	t.Helper()
	r := log[idx]
	got := m.Response(log, r.Pid, r.Seq)
	_, resps := objtype.Replay(c.typ, n, log[:idx+1].Ops())
	want := resps[idx]
	if fmt.Sprintf("%T", got) != fmt.Sprintf("%T", want) || !shmem.ValuesEqual(got, want) {
		t.Fatalf("%s %s: record %d (%v) = %#v, replay gives %#v", c.name, what, idx, r, got, want)
	}
}

// TestReplayMemoMatchesReplay is the memo's differential property test:
// over append-only growth, reads of stale shorter prefixes, and divergent
// logs (reordered records, or one argument changed), every response equals
// what a fresh objtype.Replay of the log prefix returns.
func TestReplayMemoMatchesReplay(t *testing.T) {
	const n, l = 6, 40
	for _, c := range memoCases(t, n) {
		for seed := int64(0); seed < 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := universal.NewReplayMemo(c.typ, n)
			log := randomLog(rng, c, n, l)

			// Append-only growth, answering the newest record and a random
			// earlier one of each prefix.
			for k := 1; k <= l; k++ {
				checkMemo(t, m, c, n, log[:k], k-1, "growth")
				checkMemo(t, m, c, n, log[:k], rng.Intn(k), "growth")
			}
			// Stale shorter prefixes after the memo holds the whole log.
			for i := 0; i < 20; i++ {
				k := 1 + rng.Intn(l)
				checkMemo(t, m, c, n, log[:k], rng.Intn(k), "stale")
			}
			// Divergent logs: a reordered suffix, then back to the original.
			for i := 0; i < 10; i++ {
				cut := rng.Intn(l)
				diverged := append(universal.Log(nil), log...)
				rng.Shuffle(l-cut, func(a, b int) {
					diverged[cut+a], diverged[cut+b] = diverged[cut+b], diverged[cut+a]
				})
				checkMemo(t, m, c, n, diverged, cut+rng.Intn(l-cut), "reordered")
				checkMemo(t, m, c, n, log, rng.Intn(l), "restored")
			}
			// Same pid, seq and op name, different argument.
			for i := range log {
				op := c.op(rng, log[i].Pid)
				if log[i].Op.Arg == nil || op.Name != log[i].Op.Name || shmem.ValuesEqual(op.Arg, log[i].Op.Arg) {
					continue
				}
				changed := append(universal.Log(nil), log...)
				changed[i].Op = op
				checkMemo(t, m, c, n, changed, l-1, "argument")
				checkMemo(t, m, c, n, log, l-1, "argument restored")
			}
		}
	}
}

// TestSharedGroupUpdateLinearizesOnLLSC shares one GroupUpdate — and so
// one replay memo — among goroutines on the concurrent memory (run it with
// -race). The history must linearize, and every response must equal a
// fresh replay of the final root log up to the operation's record.
func TestSharedGroupUpdateLinearizesOnLLSC(t *testing.T) {
	const n, k = 6, 3
	for _, c := range []struct {
		typ objtype.Type
		op  func(pid, i int) objtype.Op
	}{
		{objtype.NewFetchIncrement(16), func(int, int) objtype.Op { return objtype.Op{Name: objtype.OpFetchIncrement} }},
		{objtype.NewEmptyQueue(), func(pid, i int) objtype.Op {
			if i%2 == 0 {
				return objtype.Op{Name: objtype.OpEnqueue, Arg: pid*10 + i}
			}
			return objtype.Op{Name: objtype.OpDequeue}
		}},
	} {
		obj := universal.NewGroupUpdate(c.typ, n, 0)
		mem := llsc.New(n)
		rec := linz.NewRecorder(n)
		resps := make([][]objtype.Value, n)
		var wg sync.WaitGroup
		for pid := 0; pid < n; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				h := mem.Handle(pid)
				for i := 0; i < k; i++ {
					op := c.op(pid, i)
					inv := rec.Begin()
					resp := obj.Invoke(h, op)
					rec.End(pid, op, resp, inv)
					resps[pid] = append(resps[pid], resp)
				}
			}(pid)
		}
		wg.Wait()

		res, err := linz.Check(c.typ, rec.History())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Linearizable {
			t.Fatalf("%s: concurrent history not linearizable", c.typ.Name())
		}
		root, _ := mem.ReadQuiesced(1).(universal.Log) // heap node 1 at base 0
		_, want := objtype.Replay(c.typ, n, root.Ops())
		for pid := range resps {
			for seq, got := range resps[pid] {
				idx := root.IndexOf(pid, seq)
				if idx < 0 || !shmem.ValuesEqual(got, want[idx]) {
					t.Fatalf("%s: p%d#%d responded %v, root log replay gives %v", c.typ.Name(), pid, seq, got, want[max(idx, 0)])
				}
			}
		}
	}
}
