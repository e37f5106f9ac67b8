package explore

import "context"

// ShrinkCtx minimizes a failing schedule: it returns a (usually much
// shorter) schedule that still produces a failure of the same kind under
// cfg. Two passes alternate until a fixpoint:
//
//   - chunk deletion (ddmin-style): contiguous chunks of halving sizes are
//     deleted greedily as long as the failure survives;
//   - canonicalizing adjacent swaps: out-of-pid-order neighbours are
//     swapped when the failure survives, which both normalizes the
//     counterexample and can merge a process's steps into runs that the
//     next deletion pass removes wholesale.
//
// The swap pass only ever sorts toward ascending pid order, so it cannot
// oscillate; every other accepted edit strictly shortens the schedule, so
// the whole loop terminates. cfg must make the run deterministic (replay
// tosses, not random ones); RunSchedule's skip-disabled semantics keep
// every candidate well-formed.
//
// Cancellation is checked between candidate runs, and on ctx done the
// best schedule found so far is returned immediately. Every returned
// schedule — cancelled or not — still fails with the requested kind (or
// is the untouched input when the input itself does not reproduce), so
// callers under a deadline always hold a valid counterexample, just
// possibly a longer one.
func ShrinkCtx(ctx context.Context, cfg Config, schedule []int, kind FailureKind) []int {
	cancelled := func() bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
	fails := func(cand []int) bool {
		rec, err := RunSchedule(cfg, cand)
		if err != nil {
			return false
		}
		return rec.Failure != nil && rec.Failure.Kind == kind
	}
	cur := append([]int(nil), schedule...)
	if cancelled() || !fails(cur) {
		// Not reproducible under cfg (e.g. nondeterministic tosses);
		// return the input untouched rather than "minimize" noise.
		return cur
	}
	for changed := true; changed; {
		changed = false
		for size := len(cur) / 2; size >= 1; size /= 2 {
			for start := 0; start+size <= len(cur); {
				if cancelled() {
					return cur
				}
				cand := make([]int, 0, len(cur)-size)
				cand = append(cand, cur[:start]...)
				cand = append(cand, cur[start+size:]...)
				if fails(cand) {
					cur = cand
					changed = true
				} else {
					start++
				}
			}
		}
		for i := 0; i+1 < len(cur); i++ {
			if cur[i] <= cur[i+1] {
				continue
			}
			if cancelled() {
				return cur
			}
			cand := append([]int(nil), cur...)
			cand[i], cand[i+1] = cand[i+1], cand[i]
			if fails(cand) {
				cur = cand
				changed = true
			}
		}
	}
	return cur
}
