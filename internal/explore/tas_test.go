package explore

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"jayanti98/internal/algos"
)

// countWinners scans a rendered event log for completed test&set operations
// that returned 0 (won the object).
func countWinners(t *testing.T, events []string) (winners, returns int) {
	t.Helper()
	for _, ev := range events {
		if !strings.Contains(ev, "return") {
			continue
		}
		returns++
		if strings.HasSuffix(ev, "-> 0") {
			winners++
		}
	}
	return winners, returns
}

// TestTASRawModeComplete runs each zoo algorithm over a round-robin
// schedule with asymmetric tosses (process 0 retreats, process 1 holds) and
// checks the basic shape of a raw-mode record: the run completes, exactly
// one process wins, and every process invoked exactly once.
func TestTASRawModeComplete(t *testing.T) {
	for _, alg := range algos.Names() {
		if alg == algos.BrokenTV {
			// The -tags mutation build registers the seeded bug; it is
			// *supposed* to fail linearizability (mutant_test.go owns that).
			continue
		}
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Alg: alg, Object: "tas", N: 2, OpsPerProc: 1,
				Tosses: func(pid int, i int) int64 { return int64(pid) }, // p0 tosses 0 (retreats), p1 tosses 1
			}
			sched := make([]int, 0, 64)
			for i := 0; i < 32; i++ {
				sched = append(sched, 0, 1)
			}
			rec, err := RunSchedule(cfg, sched)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failure != nil {
				t.Fatalf("unexpected failure: %v\nevents:\n%s", rec.Failure, strings.Join(rec.Events, "\n"))
			}
			if !rec.Completed || rec.Truncated {
				t.Fatalf("run did not complete: completed=%v truncated=%v steps=%d", rec.Completed, rec.Truncated, rec.Steps)
			}
			winners, returns := countWinners(t, rec.Events)
			if returns != 2 || winners != 1 {
				t.Fatalf("want 2 returns with exactly 1 winner, got %d returns / %d winners:\n%s",
					returns, winners, strings.Join(rec.Events, "\n"))
			}
		})
	}
}

// TestTASSoloWins pins the solo path: a process running alone must win —
// for TV in 3 shared steps (two swaps and a read: it retreats once on toss
// 0, re-reads nil, and decides), for the tournament in ⌈log₂ 2⌉ + 2 = 3
// steps (door read, leaf swap, sibling read) before climbing to the root.
func TestTASSoloWins(t *testing.T) {
	for _, alg := range []string{"tas-tv", "tas-tournament"} {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Alg: alg, Object: "tas", N: 2, OpsPerProc: 1,
				Tosses: func(int, int) int64 { return 1 }} // never retreat
			sched := []int{0, 0, 0, 0, 0, 0, 0, 0}
			rec, err := RunSchedule(cfg, sched)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failure != nil {
				t.Fatalf("unexpected failure: %v", rec.Failure)
			}
			winners, returns := countWinners(t, rec.Events)
			if returns != 1 || winners != 1 {
				t.Fatalf("solo run: want 1 winning return, got %d returns / %d winners:\n%s",
					returns, winners, strings.Join(rec.Events, "\n"))
			}
		})
	}
}

// TestTASTruncation: under a symmetric schedule with symmetric tosses the
// TV protocol livelocks (both processes retreat and re-raise in lockstep
// forever), so the budget cuts the run off — which must surface as
// Truncated, not as a Failure: randomized algorithms are only expected to
// terminate with probability 1, not under every adversary.
func TestTASTruncation(t *testing.T) {
	cfg := Config{Alg: "tas-tv", Object: "tas", N: 2, OpsPerProc: 1,
		Tosses: func(int, int) int64 { return 0 }} // everyone always retreats
	sched := make([]int, 0, 64)
	for i := 0; i < 32; i++ {
		sched = append(sched, 0, 1)
	}
	rec, err := RunSchedule(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failure != nil {
		t.Fatalf("budget exhaustion of a zoo algorithm must truncate, not fail: %v", rec.Failure)
	}
	if rec.Completed || !rec.Truncated {
		t.Fatalf("want a truncated run, got completed=%v truncated=%v steps=%d", rec.Completed, rec.Truncated, rec.Steps)
	}
	if rec.Steps != 14 { // the tas-tv default budget
		t.Fatalf("truncated run executed %d steps, want the full budget 14", rec.Steps)
	}
}

// TestTASRawConfigValidation pins the raw-runner's configuration checks:
// zoo algorithms are one-shot, bound to their workload, and (for TV)
// inherently two-process.
func TestTASRawConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"wrong object", Config{Alg: "tas-tv", Object: "fetch-increment", N: 2, OpsPerProc: 1}, "implements workload"},
		{"multi-shot", Config{Alg: "tas-tv", Object: "tas", N: 2, OpsPerProc: 2}, "one-shot"},
		{"tv beyond two", Config{Alg: "tas-tv", Object: "tas", N: 3, OpsPerProc: 1}, "at most"},
		{"bad backend", Config{Alg: "tas-tv", Object: "tas", N: 2, OpsPerProc: 1, LLSC: "bogus"}, "backend"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, err := Exhaustive(tc.cfg, 1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestExhaustiveBackendsEqual is the Blelloch–Wei acceptance criterion: the
// BW backend must be indistinguishable from the native LL/SC memory under
// exhaustive exploration at n ∈ {2, 3}. Equal States counts are the strong
// claim — the memo key embeds the memory fingerprint, so the two backends
// visit byte-identical fingerprints at every node of the schedule tree, for
// both a universal construction and the raw TAS protocols.
func TestExhaustiveBackendsEqual(t *testing.T) {
	cases := []struct {
		alg, object string
		n           int
	}{
		{"tas-tv", "tas", 2},
		{"tas-tournament", "tas", 2},
		{"tas-tournament", "tas", 3},
		{"central", "fetch-increment", 2},
		{"central", "fetch-increment", 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.alg+"/"+tc.object, func(t *testing.T) {
			if tc.n == 3 && tc.alg == "tas-tournament" && testing.Short() {
				t.Skip("long backend comparison skipped in -short mode")
			}
			t.Parallel()
			cfg := Config{Alg: tc.alg, Object: tc.object, N: tc.n, OpsPerProc: 1}
			cfg.LLSC = "native"
			native, err := Exhaustive(cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			cfg.LLSC = "bw"
			bw, err := Exhaustive(cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			native.Cfg, bw.Cfg = Config{}, Config{} // only the LLSC field differs
			if !reflect.DeepEqual(native, bw) {
				t.Fatalf("backends diverge:\nnative: %+v\nbw:     %+v", native, bw)
			}
			if native.States == 0 || native.Complete == 0 {
				t.Fatalf("empty exploration: %+v", native)
			}
		})
	}
}

// TestTASFuzzClean: random schedules and tosses over both TAS protocols on
// both backends must produce no failures (the exhaustive golden covers
// small n; fuzz adds schedule shapes the DFS order never emphasizes and,
// for the tournament, n above the exhaustive horizon).
func TestTASFuzzClean(t *testing.T) {
	cases := []Config{
		{Alg: "tas-tv", Object: "tas", N: 2, OpsPerProc: 1},
		{Alg: "tas-tournament", Object: "tas", N: 5, OpsPerProc: 1, LLSC: "bw"},
	}
	for _, cfg := range cases {
		cfg := cfg
		t.Run(cfg.Alg, func(t *testing.T) {
			t.Parallel()
			rep, err := FuzzCtx(context.Background(), cfg, FuzzOptions{Samples: 200, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Failures) != 0 {
				t.Fatalf("fuzz found failures: %s (%s)", rep.Failures[0].Kind, rep.Failures[0].Detail)
			}
		})
	}
}

// TestReplayThreadsLLSC: the replay file format records the LL/SC backend
// and Config() restores it, so a failure found on the BW backend replays on
// the BW backend.
func TestReplayThreadsLLSC(t *testing.T) {
	rp := &Replay{Alg: "tas-tv", Object: "tas", N: 2, OpsPerProc: 1, LLSC: "bw"}
	if got := rp.Config().LLSC; got != "bw" {
		t.Fatalf("Replay.Config().LLSC = %q, want \"bw\"", got)
	}
}
