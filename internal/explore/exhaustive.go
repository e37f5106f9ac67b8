package explore

import (
	"context"
	"fmt"

	"jayanti98/internal/sweep"
)

// Report summarizes an exhaustive exploration.
type Report struct {
	// Cfg echoes the explored configuration (with Budget resolved).
	Cfg Config
	// States counts distinct memoized states. Parallel branches keep
	// independent visited sets, so states reachable from several first
	// steps are counted once per branch; the count is nevertheless
	// deterministic at every worker count.
	States int
	// Runs counts prefix executions (every DFS node re-executes its prefix
	// from scratch).
	Runs int
	// Complete counts runs in which every process terminated.
	Complete int
	// Truncated counts leaf runs cut off by the step budget with processes
	// still live. Always 0 for constructions (their budget exhaustion is a
	// Failure); for zoo algorithms (package algos) it measures how much of
	// the schedule space the budget leaves unexplored — randomized TAS
	// livelocks under symmetric schedules, so some truncation is inherent.
	Truncated int
	// Failure is the first failure in branch order, nil if the whole
	// schedule space is clean.
	Failure *Failure
	// Record is the failing run, nil if Failure is nil.
	Record *RunRecord
}

// exhaustiveWorker explores the subtree under one first step with its own
// visited set.
type exhaustiveWorker struct {
	ctx       context.Context
	cfg       Config
	visited   map[string]bool
	keyBuf    []byte // reused memo-key scratch (appendMemoKey)
	runs      int
	complete  int
	truncated int
}

// Exhaustive enumerates every schedule of cfg by depth-first search over
// interleavings, pruning prefixes whose product state (machine histories,
// memory fingerprint, online-checker configs) was already visited. The
// subtrees under the n possible first steps are explored in parallel on up
// to `workers` goroutines (sweep.Workers semantics); the result — including
// which failure is reported — is deterministic at every worker count,
// because branches are independent and the lowest branch's failure wins.
//
// Exhaustive requires a deterministic toss assignment (it explores
// schedules, not coin flips): cfg.Tosses must be nil or pure.
//
// Exhaustive is ExhaustiveCtx with a background context. It keeps this
// name and signature because the repository benchmark (perfbench/, a
// separate module whose files stay fixed between benchmark revisions)
// calls it; everything else uses ExhaustiveCtx.
func Exhaustive(cfg Config, workers int) (*Report, error) {
	return ExhaustiveCtx(context.Background(), cfg, workers)
}

// ExhaustiveCtx is Exhaustive under a context: cancellation aborts the
// search — both across branches (no new branch is dispatched) and inside a
// branch (the DFS checks ctx before every prefix re-execution) — and
// returns ctx.Err(). A cancelled search yields no report.
func ExhaustiveCtx(ctx context.Context, cfg Config, workers int) (*Report, error) {
	root, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Budget = root.budget // resolve for the report
	rep := &Report{Cfg: cfg, Runs: 1}
	if root.fail != nil {
		rep.Failure = root.fail
		rep.Record = root.record()
		root.close()
		return rep, nil
	}
	if root.done() {
		if err := root.finalCheck(); err != nil {
			root.close()
			return nil, err
		}
		rep.Complete = 1
		rep.Failure = root.fail
		if root.fail != nil {
			rep.Record = root.record()
		}
		root.close()
		return rep, nil
	}
	branches := root.enabled()
	root.close()

	type branchResult struct {
		states, runs, complete, truncated int
		failure                           *Failure
		record                            *RunRecord
	}
	results, err := sweep.Map(ctx, workers, len(branches), func(i int) (branchResult, error) {
		w := &exhaustiveWorker{ctx: ctx, cfg: cfg, visited: make(map[string]bool)}
		f, rec, err := w.dfs([]int{branches[i]})
		if err != nil {
			return branchResult{}, err
		}
		return branchResult{states: len(w.visited), runs: w.runs, complete: w.complete, truncated: w.truncated, failure: f, record: rec}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, br := range results {
		rep.States += br.states
		rep.Runs += br.runs
		rep.Complete += br.complete
		rep.Truncated += br.truncated
		if rep.Failure == nil && br.failure != nil {
			rep.Failure = br.failure
			rep.Record = br.record
		}
	}
	return rep, nil
}

// dfs executes prefix from scratch and recurses on every enabled process.
// It returns the first failure found in its subtree (with the failing
// run's record), or nil if the subtree is clean.
func (e *exhaustiveWorker) dfs(prefix []int) (*Failure, *RunRecord, error) {
	if err := e.ctx.Err(); err != nil {
		return nil, nil, err
	}
	r, err := newRunner(e.cfg)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	e.runs++
	for _, pid := range prefix {
		if r.fail != nil {
			break
		}
		if !r.step(pid) && r.fail == nil {
			return nil, nil, fmt.Errorf("explore: internal: prefix pid %d not enabled during re-execution", pid)
		}
	}
	if r.fail != nil {
		return r.fail, r.record(), nil
	}
	if r.done() {
		e.complete++
		if err := r.finalCheck(); err != nil {
			return nil, nil, err
		}
		if r.fail != nil {
			return r.fail, r.record(), nil
		}
		return nil, nil, nil
	}
	if r.truncated() {
		// A zoo algorithm out of budget: nothing is enabled below this
		// prefix, so it is a leaf — count it, don't memoize it.
		e.truncated++
		return nil, nil, nil
	}
	e.keyBuf = r.appendMemoKey(e.keyBuf[:0])
	key := string(e.keyBuf)
	if e.visited[key] {
		return nil, nil, nil
	}
	e.visited[key] = true
	next := r.enabled()
	// Free the run's goroutines before recursing: the DFS is as deep as
	// the budget, and each live runner holds cfg.N goroutines.
	r.close()
	for _, pid := range next {
		f, rec, err := e.dfs(append(prefix[:len(prefix):len(prefix)], pid))
		if f != nil || err != nil {
			return f, rec, err
		}
	}
	return nil, nil, nil
}
