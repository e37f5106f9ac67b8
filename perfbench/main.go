// Command perfbench is the repository benchmark: it runs one workload
// against the model layers in-process or against lbserver/lbworker
// binaries on loopback, checks every output, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as the last line of
// standard output. Build and run it through run.sh, which compiles the
// service binaries from the same checkout:
//
//	bash perfbench/run.sh --workload adversary --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"jayanti98/internal/llsc"
	"jayanti98/internal/machine"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	duration time.Duration
	short    bool
	// bin holds lbserver and lbworker; work is the scratch directory for
	// cache dirs, logs and trace files.
	bin, work string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run measured.
type result struct {
	setupS   float64
	maxRSSMB float64
	// op is the latency of the workload's primary operation; workPerS its
	// throughput in the workload's own unit of work.
	op       latency
	workPerS float64
	tally    tally
	// layers holds per-layer metrics gathered by the traced run.
	layers map[string]metric
	// journalRecord is one job-journal record the server wrote (service
	// workload only), for the journal-write probe.
	journalRecord []byte
}

func newResult() *result { return &result{layers: map[string]metric{}} }

// setUpRepeats is how many times a run sets up; setup_s is the median.
const setUpRepeats = 11

// endToEnd lists the end-to-end metrics every workload reports, with
// their units, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"success_rate", "ratio"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"work_per_s", "1/s"},
}

// workloads maps each workload to its runner and to the names its generic
// end-to-end metrics go by in README.md.
var workloads = map[string]struct {
	run   func(runConfig, *tracer) (*result, error)
	names map[string]string
}{
	"adversary": {runAdversary, map[string]string{
		"op_ms_p50": "adversary_run_ms_p50", "op_ms_tail": "adversary_run_ms_tail", "work_per_s": "adversary_steps_per_s",
	}},
	"explore": {runExplore, map[string]string{
		"op_ms_p50": "campaign_round_ms_p50", "op_ms_tail": "campaign_round_ms_tail", "work_per_s": "explore_states_per_s",
	}},
	"service": {runService, map[string]string{
		"op_ms_p50": "job_done_ms_p50", "op_ms_tail": "job_done_ms_tail", "work_per_s": "jobs_per_s",
	}},
	"fleet": {runFleet, map[string]string{
		"op_ms_p50": "shard_job_done_ms_p50", "op_ms_tail": "shard_job_done_ms_tail", "work_per_s": "shard_jobs_per_s",
	}},
}

var workloadOrder = []string{"adversary", "explore", "service", "fleet"}

func (r *result) endToEnd() map[string]metric {
	tail, _ := r.op.tail()
	vals := map[string]float64{
		"setup_s":      r.setupS,
		"max_rss_mb":   r.maxRSSMB,
		"success_rate": r.tally.successRate(),
		"op_ms_p50":    r.op.median(),
		"op_ms_tail":   tail,
		"work_per_s":   r.workPerS,
	}
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	short := fs.Bool("short", false, "run each workload once at reduced size (smoke mode)")
	root := fs.String("root", ".", "checkout root; binaries and scratch files live under <root>/.bench_build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *workload, strings.Join(workloadOrder, ", "))
		return 2
	}
	cfg := runConfig{
		seed: *seed, duration: time.Duration(*seconds) * time.Second, short: *short,
		bin: filepath.Join(*root, ".bench_build", "bin"), work: filepath.Join(*root, ".bench_build", "work"),
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printEnvironment()

	out := report{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		c := cfg
		c.workload = name
		rep, err := runOne(c, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		out.Correct = out.Correct && rep.Correct
		out.Attempted += rep.Attempted
		out.Failed += rep.Failed
		for k, v := range rep.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			out.Metrics[k] = v
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runOne runs one workload. Untraced, it reports the end-to-end metrics.
// Traced, it runs the workload twice for half the time each, first
// untraced and then with spans on, writes the spans out, sweeps every
// layer, and reports the per-layer metrics plus trace.overhead_frac.
func runOne(cfg runConfig, traced bool) (report, error) {
	w := workloads[cfg.workload]
	if !traced {
		before, statErr := readCPUStat()
		res, err := w.run(cfg, nil)
		if err != nil {
			return report{}, err
		}
		printEndToEnd(cfg.workload, res, w.names)
		// On a shared virtual machine, time the hypervisor gives to other
		// guests stretches every wall-clock metric; say how much there was.
		if after, err := readCPUStat(); statErr == nil && err == nil {
			fmt.Fprintf(os.Stderr, "host: %.1f%% of this machine's CPU time was stolen by the hypervisor during the run\n",
				100*after.stealShare(before))
		}
		return finish(res.tally, res.endToEnd()), nil
	}

	half := cfg
	half.duration = cfg.duration / 2
	plain, err := w.run(half, nil)
	if err != nil {
		return report{}, err
	}
	tr := newTracer()
	res, err := w.run(half, tr)
	if err != nil {
		return report{}, err
	}
	path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	selfs, err := tr.write(path)
	if err != nil {
		return report{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "spans written to %s; self time by span (traced half):\n", path)
	for _, lt := range selfs {
		fmt.Fprintf(os.Stderr, "  %-34s %8d calls %12.1f ms self %12.1f ms total\n", lt.Name, lt.Count, lt.SelfMS, lt.TotalMS)
	}

	layers, sweepTally, err := sweepLayers(cfg)
	if err != nil {
		return report{}, err
	}
	layers["trace.overhead_frac"] = metric{plain.workPerS/res.workPerS - 1, "ratio"}
	t := plain.tally
	t.merge(res.tally)
	t.merge(sweepTally)
	printLayers(layers)
	return finish(t, layers), nil
}

func finish(t tally, metrics map[string]metric) report {
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "FAILED: %d of %d operations; first: %v\n", t.failed, t.attempted, t.firstErr)
	}
	return report{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

func printEnvironment() {
	fmt.Fprintf(os.Stderr, "perfbench: engine=%s llsc=%s GOMAXPROCS=%d NumCPU=%d go=%s\n",
		machine.DefaultEngine(), llsc.DefaultBackend(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
}

func printEndToEnd(workload string, res *result, names map[string]string) {
	_, tailLabel := res.op.tail()
	fmt.Fprintf(os.Stderr, "%s: %d operations attempted, %d failed; %d latency samples\n",
		workload, res.tally.attempted, res.tally.failed, len(res.op.samples))
	e2e := res.endToEnd()
	for _, m := range endToEnd {
		alias := names[m.name]
		if alias == "" {
			alias = m.name
		}
		if m.name == "op_ms_tail" {
			alias += " [" + tailLabel + "]"
		}
		fmt.Fprintf(os.Stderr, "  %-14s %-48s %14.4f %s\n", m.name, alias, e2e[m.name].Value, m.unit)
	}
}

func printLayers(layers map[string]metric) {
	for _, m := range layerMetrics {
		v, ok := layers[m.name]
		if !ok {
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-34s %16.4f %s\n", m.name, v.Value, v.Unit)
	}
}

// peakRSSMB reads the VmHWM line of a /proc/<pid>/status file.
func peakRSSMB(statusPath string) (float64, error) {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in " + statusPath)
}
