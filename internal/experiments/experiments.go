// Package experiments is the runnable registry of the reproduction's
// experiments E1–E15 (see DESIGN.md §3 and §15), extracted from cmd/lbreport so
// the same code path serves both the markdown report pipeline and the job
// service (internal/jobs).
//
// Each experiment renders into a report.Doc — markdown byte-identical to
// what cmd/lbreport historically produced, with every table additionally
// captured for structured (JSON) consumption — and takes a context that
// cancels its sweeps mid-grid (sweep.Map semantics). Determinism:
// with a live context, an experiment's output depends only on Options,
// never on the worker count or goroutine scheduling.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"jayanti98/internal/core"
	"jayanti98/internal/counting"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/machine"
	"jayanti98/internal/objtype"
	"jayanti98/internal/obs"
	"jayanti98/internal/report"
	"jayanti98/internal/stats"
	"jayanti98/internal/sweep"
	"jayanti98/internal/universal"
	"jayanti98/internal/wakeup"
)

// Options carries the knobs every experiment understands.
type Options struct {
	// Quick shrinks the sweeps for a fast smoke run.
	Quick bool
	// Parallel is the sweep worker count (≤ 0: one per CPU, 1: serial).
	Parallel int
}

// Experiment is one runnable entry of the registry.
type Experiment struct {
	// Name is the registry key and report label ("E1", "E4/E5", ...).
	Name string
	// Run renders the experiment into d. Cancelling ctx aborts the
	// experiment's sweeps and returns the context error.
	Run func(ctx context.Context, d *report.Doc, opts Options) error
}

// All returns the experiments in report order. Every entry's Run is
// traced: when the caller's context carries an obs tracer (the job
// service threads one through every job), each section runs under its
// own span — named after the experiment, parented to the caller's span —
// so /debug/traces shows scheduler → experiment trees. Outside a traced
// context (plain cmd/lbreport) the span is a no-op.
func All() []Experiment {
	all := []Experiment{
		{"E1", e1},
		{"E2", e2},
		{"E3", e3},
		{"E4/E5", e4e5},
		{"E6", e6},
		{"E7/E8", e7e8},
		{"E9", e9},
		{"E10", e10},
		{"E11", e11},
		{"E12", e12},
		{"E13", e13},
		{"E14", e14},
		{"E15", e15},
	}
	for i := range all {
		all[i].Run = traced(all[i].Name, all[i].Run)
	}
	return all
}

// traced wraps an experiment body in a span carrying the section name and
// outcome.
func traced(name string, run func(context.Context, *report.Doc, Options) error) func(context.Context, *report.Doc, Options) error {
	return func(ctx context.Context, d *report.Doc, opts Options) error {
		ctx, span := obs.StartSpan(ctx, "experiment "+name)
		defer span.End()
		if opts.Quick {
			span.SetAttr("quick", "true")
		}
		err := run(ctx, d, opts)
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		return err
	}
}

// Names lists the registry keys in report order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.Name
	}
	return names
}

// For resolves experiment names to registry entries, preserving report
// order and rejecting unknown or duplicate names. An empty list selects
// every experiment.
func For(names []string) ([]Experiment, error) {
	if len(names) == 0 {
		return All(), nil
	}
	want := make(map[string]bool, len(names))
	for _, name := range names {
		if want[name] {
			return nil, fmt.Errorf("experiments: duplicate name %q", name)
		}
		want[name] = true
	}
	var out []Experiment
	for _, e := range All() {
		if want[e.Name] {
			out = append(out, e)
			delete(want, e.Name)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("experiments: unknown name(s) %s (want %s)",
			strings.Join(unknown, ", "), strings.Join(Names(), ", "))
	}
	return out, nil
}

// Header writes the report preamble cmd/lbreport prints before the first
// experiment.
func Header(w io.Writer) {
	fmt.Fprintln(w, "# Experiment report — Jayanti (PODC 1998) lower bound reproduction")
	fmt.Fprintln(w, "\nGenerated by `go run ./cmd/lbreport`. Bound column is ⌈log₄ n⌉ —")
	fmt.Fprintln(w, "Theorem 6.1's minimum for the winner's shared-access steps.")
}

// WriteReport runs the selected experiments (empty: all) in report order,
// streaming each section to w as it completes, with an optional wall-clock
// line per section. This is cmd/lbreport's whole pipeline.
func WriteReport(ctx context.Context, w io.Writer, names []string, opts Options, timing bool) error {
	selected, err := For(names)
	if err != nil {
		return err
	}
	Header(w)
	for _, e := range selected {
		start := time.Now()
		var d report.Doc
		if err := e.Run(ctx, &d, opts); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if _, err := io.WriteString(w, d.Markdown()); err != nil {
			return err
		}
		if timing {
			report.Timing(w, e.Name, time.Since(start))
		}
	}
	return nil
}

// Grid sizes per experiment family; Quick shrinks them for smoke runs.

func wakeupNs(opts Options) []int {
	if opts.Quick {
		return []int{2, 4, 8, 16}
	}
	return []int{2, 4, 8, 16, 32, 64, 128, 256}
}

func reductionNs(opts Options) []int {
	if opts.Quick {
		return []int{2, 4, 8}
	}
	return []int{2, 4, 8, 16, 32, 64}
}

func constructionNs(opts Options) []int {
	if opts.Quick {
		return []int{2, 4, 8, 16, 32}
	}
	return []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

func samples(opts Options) int {
	if opts.Quick {
		return 10
	}
	return 100
}

func e1(ctx context.Context, d *report.Doc, opts Options) error {
	report.Section(d, 2, "E1 — Theorem 6.1: adversary-forced wakeup cost (deterministic)")
	fmt.Fprintln(d, "Every winner must spend ≥ ⌈log₄ n⌉ shared accesses; set-register pays Θ(n).")
	fmt.Fprintln(d)
	algs := []func(n int) machine.Algorithm{
		func(int) machine.Algorithm { return wakeup.SetRegister() },
		func(int) machine.Algorithm { return wakeup.MoveCourier() },
	}
	tbl := report.NewTable("algorithm", "n", "winner steps", "bound ⌈log₄ n⌉", "t(R) max steps", "rounds", "spec", "lemma 5.1", "thm 6.1")
	for _, mk := range algs {
		results, err := lowerbound.SweepWakeup(ctx, mk, wakeupNs(opts), machine.ZeroTosses, opts.Parallel)
		if err != nil {
			return err
		}
		for _, r := range results {
			tbl.AddRow(r.Algorithm, r.N, r.WinnerSteps, r.Bound, r.MaxSteps, r.Rounds,
				report.Check(r.SpecErr), report.Check(r.Lemma51Err), report.Check(r.Theorem61Err))
		}
	}
	return d.Table(tbl)
}

func e2(ctx context.Context, d *report.Doc, opts Options) error {
	n := samples(opts)
	report.Section(d, 2, "E2 — Theorem 6.1 randomized: expected complexity over %d toss assignments", n)
	fmt.Fprintln(d, "double-register terminates with probability c = 1, so E[winner steps] ≥ log₄ n.")
	fmt.Fprintln(d)
	tbl := report.NewTable("n", "E[winner steps]", "min", "max", "E[t(R)]", "bound", "failed runs")
	for _, nn := range wakeupNs(opts) {
		res, err := lowerbound.ExpectedComplexity(ctx,
			func(int) machine.Algorithm { return wakeup.DoubleRegister() },
			nn, n, sweep.Seed("E2", "double-register", nn, 0), opts.Parallel)
		if err != nil {
			return err
		}
		tbl.AddRow(nn, fmt.Sprintf("%.2f", res.Winner.Mean), res.Winner.Min, res.Winner.Max,
			fmt.Sprintf("%.2f", res.Max.Mean), res.Bound, res.Failures)
	}
	return d.Table(tbl)
}

func e3(ctx context.Context, d *report.Doc, opts Options) error {
	report.Section(d, 2, "E3 — Theorem 6.2: per-type lower bounds via wakeup reductions")
	fmt.Fprintln(d, "Each reduction solves wakeup with ≤ k ops per process on one object")
	fmt.Fprintln(d, "(implemented by the group-update construction), so any implementation of")
	fmt.Fprintln(d, "the type costs ≥ ⌈log₄ n⌉/k shared accesses for some operation.")
	fmt.Fprintln(d)
	tbl := report.NewTable("type", "n", "k (ops/proc)", "winner steps", "per-op bound", "t(R)", "spec", "thm 6.1")
	for _, spec := range wakeup.Reductions() {
		results, err := lowerbound.SweepReduction(ctx, spec, "group-update", reductionNs(opts), machine.ZeroTosses, opts.Parallel)
		if err != nil {
			return err
		}
		for _, r := range results {
			tbl.AddRow(r.Type, r.N, r.OpsPerProcess, r.WinnerSteps, r.PerOpBound, r.MaxSteps,
				report.Check(r.SpecErr), report.Check(r.Theorem61Err))
		}
	}
	return d.Table(tbl)
}

func e4e5(ctx context.Context, d *report.Doc, opts Options) error {
	report.Section(d, 2, "E4/E5 — Lemma 5.1 (UP growth ≤ 4^r) and Lemma 5.2 (indistinguishability)")
	fmt.Fprintln(d, "For every process p of every run, the (UP(p,steps(p)),A)-run is verified")
	fmt.Fprintln(d, "indistinguishable from the (All,A)-run; UP sets never exceed 4^r.")
	fmt.Fprintln(d)
	mks := []struct {
		name string
		mk   func(n int) machine.Algorithm
	}{
		{"set-register", func(int) machine.Algorithm { return wakeup.SetRegister() }},
		{"move-courier", func(int) machine.Algorithm { return wakeup.MoveCourier() }},
		{"double-register", func(int) machine.Algorithm { return wakeup.DoubleRegister() }},
	}
	type item struct {
		mkIdx, n int
	}
	var items []item
	for i := range mks {
		for _, n := range wakeupNs(opts) {
			if n > 64 {
				continue // sub-run replay per process is quadratic; keep the report fast
			}
			items = append(items, item{i, n})
		}
	}
	type row struct {
		alg      string
		n        int
		checked  int
		l51, l52 error
	}
	rows, err := sweep.Map(ctx, opts.Parallel, len(items), func(i int) (row, error) {
		it := items[i]
		alg := mks[it.mkIdx].mk(it.n)
		run, err := core.RunAll(alg, it.n, lowerbound.HashTosses(7), core.Config{})
		if err != nil {
			return row{}, err
		}
		l51 := core.CheckLemma51(run)
		checked, l52 := lowerbound.VerifyIndistinguishability(ctx, alg, it.n, lowerbound.HashTosses(7), 1)
		if err := ctx.Err(); err != nil {
			return row{}, err // a cancelled replay is no Lemma 5.2 verdict
		}
		return row{alg.Name(), it.n, checked, l51, l52}, nil
	})
	if err != nil {
		return err
	}
	tbl := report.NewTable("algorithm", "n", "subsets checked", "lemma 5.1", "lemma 5.2")
	for _, r := range rows {
		tbl.AddRow(r.alg, r.n, r.checked, report.Check(r.l51), report.Check(r.l52))
	}
	return d.Table(tbl)
}

func e6(ctx context.Context, d *report.Doc, opts Options) error {
	report.Section(d, 2, "E6 — proof mechanics: catching a too-fast wakeup algorithm")
	fmt.Fprintln(d, "The cheater returns 1 after one shared access. The catch procedure builds")
	fmt.Fprintln(d, "S = UP(winner, 1) and replays the (S,A)-run: the winner still returns 1")
	fmt.Fprintln(d, "while the processes outside S never take a step — a spec violation,")
	fmt.Fprintln(d, "machine-checked together with the indistinguishability of the two runs.")
	fmt.Fprintln(d)
	ns := []int{8, 16, 64, 256}
	catches, err := sweep.Map(ctx, opts.Parallel, len(ns), func(i int) (*core.Catch, error) {
		run, err := core.RunAll(wakeup.Cheater(), ns[i], machine.ZeroTosses, core.Config{})
		if err != nil {
			return nil, err
		}
		return core.CatchFastWakeup(run)
	})
	if err != nil {
		return err
	}
	tbl := report.NewTable("n", "winner", "winner steps", "size of S", "processes never stepping", "caught")
	for i, catch := range catches {
		if catch == nil {
			tbl.AddRow(ns[i], "-", "-", "-", "-", "NO (bug!)")
			continue
		}
		tbl.AddRow(ns[i], fmt.Sprintf("p%d", catch.Winner), catch.WinnerSteps, catch.S.Len(),
			len(catch.NeverStepped), "yes")
	}
	return d.Table(tbl)
}

func e7e8(ctx context.Context, d *report.Doc, opts Options) error {
	report.Section(d, 2, "E7/E8 — tightness: group-update O(log n) vs herlihy Θ(n)")
	fmt.Fprintln(d, "Adversary-forced worst-case shared accesses for one fetch&increment.")
	fmt.Fprintln(d)
	ns := constructionNs(opts)
	var guResults []lowerbound.ConstructionResult
	for _, name := range []string{"group-update", "herlihy"} {
		name := name
		mk := func(n int) universal.Construction {
			return universal.Must(universal.New(name, objtype.NewFetchIncrement(64), n, 0))
		}
		results, growth, err := lowerbound.SweepConstruction(ctx, mk, lowerbound.FetchIncOp, ns, opts.Parallel)
		if err != nil {
			return err
		}
		if name == "group-update" {
			guResults = results
		}
		fmt.Fprintf(d, "**%s** — measured growth: %s\n\n", name, growth)
		tbl := report.NewTable("n", "forced steps (max/op)", "documented bound", "Ω bound ⌈log₄ n⌉")
		for _, r := range results {
			tbl.AddRow(r.N, r.MaxSteps, r.StepBound, r.LowerBound)
		}
		if err := d.Table(tbl); err != nil {
			return err
		}
		fmt.Fprintln(d)
	}
	xs := make([]float64, len(guResults))
	ys := make([]float64, len(guResults))
	for i, r := range guResults {
		xs[i] = stats.Log2(float64(r.N))
		ys[i] = float64(r.MaxSteps)
	}
	fit := stats.LeastSquares(xs, ys)
	fmt.Fprintf(d, "group-update steps vs log₂ n: %s — slope between 1 and 8 confirms O(log n).\n", fit)
	return nil
}

func e9(ctx context.Context, d *report.Doc, opts Options) error {
	report.Section(d, 2, "E9 — Section 4: secretive vs naive move scheduling")
	fmt.Fprintln(d, "Longest movers chain = how many processes one register can reveal.")
	fmt.Fprintln(d)
	ns := []int{8, 64, 512, 4096}
	rows, err := sweep.Map(ctx, opts.Parallel, len(ns), func(i int) ([]lowerbound.MoveScheduleResult, error) {
		n := ns[i]
		return lowerbound.MoveScheduleComparison(n, sweep.Seed("E9", "move-schedule", n, 0)), nil
	})
	if err != nil {
		return err
	}
	tbl := report.NewTable("workload", "n", "naive max movers", "secretive max movers", "lemma 4.1", "lemma 4.2")
	for _, results := range rows {
		for _, r := range results {
			tbl.AddRow(r.Workload, r.N, r.NaiveMaxMovers, r.SecretiveMax,
				report.Bool(r.SecretiveLegal), report.Bool(r.Lemma42Verified))
		}
	}
	return d.Table(tbl)
}

func e10(ctx context.Context, d *report.Doc, opts Options) error {
	report.Section(d, 2, "E10 — Section 7: unbounded RMW gives unit-time universal objects")
	fmt.Fprintln(d, "With read-modify-write on unbounded registers every operation costs exactly")
	fmt.Fprintln(d, "one shared access — the lower bound cannot extend to such a memory.")
	fmt.Fprintln(d)
	cases := []struct {
		mkType func() objtype.Type
		op     func(n, pid int) objtype.Op
	}{
		{func() objtype.Type { return objtype.NewFetchIncrement(64) }, lowerbound.FetchIncOp},
		{func() objtype.Type { return objtype.NewWakeupQueue() },
			func(n, pid int) objtype.Op { return objtype.Op{Name: objtype.OpDequeue} }},
		{func() objtype.Type { return objtype.NewFetchMultiply(64) }, func(n, pid int) objtype.Op {
			return objtype.Op{Name: objtype.OpFetchMultiply, Arg: objtype.HexUint(2)}
		}},
	}
	rows, err := sweep.Map(ctx, opts.Parallel, len(cases), func(i int) (lowerbound.RMWResult, error) {
		return lowerbound.RMWUnitTime(cases[i].mkType(), 64, cases[i].op)
	})
	if err != nil {
		return err
	}
	tbl := report.NewTable("type", "n", "steps/op", "responses correct")
	for _, res := range rows {
		tbl.AddRow(res.Type, res.N, res.StepsPerOp, report.Bool(res.Correct))
	}
	return d.Table(tbl)
}

func e11(ctx context.Context, d *report.Doc, opts Options) error {
	report.Section(d, 2, "E11 — exploiting semantics: wakeup via a bitonic counting network")
	fmt.Fprintln(d, "The counting network solves wakeup with O(log² n) balancer steps and only")
	fmt.Fprintln(d, "O(log n)-bit registers — between the Ω(log n) bound and the O(log² n)")
	fmt.Fprintln(d, "closed-object construction of Chandra–Jayanti–Tan cited in Section 2,")
	fmt.Fprintln(d, "and without the unbounded registers the oblivious O(log n) construction needs.")
	fmt.Fprintln(d)
	results, err := lowerbound.SweepWakeup(ctx, wakeup.CountingNetwork, wakeupNs(opts), machine.ZeroTosses, opts.Parallel)
	if err != nil {
		return err
	}
	tbl := report.NewTable("n", "winner steps", "bound ⌈log₄ n⌉", "depth·4+2 (lockstep cost)", "t(R)", "spec", "thm 6.1")
	for _, r := range results {
		tbl.AddRow(r.N, r.WinnerSteps, r.Bound, counting.Depth(r.N)*4+2, r.MaxSteps,
			report.Check(r.SpecErr), report.Check(r.Theorem61Err))
	}
	return d.Table(tbl)
}

func e12(ctx context.Context, d *report.Doc, opts Options) error {
	report.Section(d, 2, "E12 — register width: what the O(log n) tightness costs (Section 7)")
	fmt.Fprintln(d, "Widest register value written during one counter draw per process under")
	fmt.Fprintln(d, "lockstep contention. The oblivious constructions carry whole operation logs")
	fmt.Fprintln(d, "(Θ(n) records); the counting network never exceeds one machine word — the")
	fmt.Fprintln(d, "concrete form of Section 7's observation that the lower bound's tightness")
	fmt.Fprintln(d, "depends on unbounded registers.")
	fmt.Fprintln(d)
	ns := []int{8, 32, 128}
	if opts.Quick {
		ns = []int{8, 16}
	}
	rows, err := sweep.Map(ctx, opts.Parallel, len(ns), func(i int) ([]lowerbound.WidthResult, error) {
		return lowerbound.RegisterWidthProfile(ns[i])
	})
	if err != nil {
		return err
	}
	tbl := report.NewTable("implementation", "n", "steps/op (max)", "max register bits", "consistency", "Ω ⌈log₄ n⌉")
	for _, results := range rows {
		for _, r := range results {
			consistency := "linearizable"
			if !r.Linearizable {
				consistency = "quiescent only"
			}
			tbl.AddRow(r.Implementation, r.N, r.MaxStepsPerOp, r.MaxRegisterBits,
				consistency, r.LowerBound)
		}
	}
	return d.Table(tbl)
}
