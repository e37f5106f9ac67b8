package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric and workload
// lists in step with what the code reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json has %d workloads, want at least 2", len(cfg.Workloads))
	}
	for _, w := range cfg.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(cfg.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code has %d", len(cfg.EndToEnd), len(endToEnd))
	}
	for i, m := range cfg.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s/%s in BENCHMARK.json, %s/%s in code", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(cfg.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code has %d", len(cfg.PerLayer), len(layerMetrics))
	}
	for i, m := range cfg.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: %s/%s in BENCHMARK.json, %s/%s in code", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

// TestShortModeRunsEveryWorkload runs each workload once in short mode,
// traced, against freshly built binaries, and checks that every declared
// metric is reported and every check passed.
func TestShortModeRunsEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds lbserver and lbworker")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"lbserver", "lbworker"} {
		build := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd)
		build.Dir = ".."
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	work := t.TempDir()
	for _, w := range workloadOrder {
		cfg := runConfig{workload: w, seed: 5, duration: time.Second, short: true, bin: bin, work: work}
		rep, err := runOne(cfg, false)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
			t.Errorf("%s: report %+v", w, rep)
		}
		for _, m := range endToEnd {
			if v, ok := rep.Metrics[m.name]; !ok || v.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v", w, m.name, v)
			}
		}
	}
	cfg := runConfig{workload: "adversary", seed: 5, duration: 2 * time.Second, short: true, bin: bin, work: work}
	rep, err := runOne(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("traced run: %+v", rep)
	}
	for _, m := range layerMetrics {
		if _, ok := rep.Metrics[m.name]; !ok {
			t.Errorf("traced run lacks %s", m.name)
		}
	}
	if len(rep.Metrics) != len(layerMetrics) {
		t.Errorf("traced run reports %d metrics, want %d", len(rep.Metrics), len(layerMetrics))
	}
}
