package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 50},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	// root covers [10,50) and [90,100) with children: self 100 − 50 = 50.
	want := map[string]float64{"root": 50e-6, "a": (25 + 20) * 1e-6, "b": 30e-6, "c": 5e-6}
	for name, w := range want {
		if g := got[name].SelfMS; g < w-1e-12 || g > w+1e-12 {
			t.Errorf("%s self = %v ms, want %v", name, g, w)
		}
	}
	if got["a"].Count != 2 || got["a"].TotalMS != 50e-6 {
		t.Errorf("a = %+v, want 2 calls, 50ns total", got["a"])
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	called := false
	tr.do("x", 0, func(id int) { called = id == 0 })
	if !called {
		t.Fatal("a nil tracer must still run the call, with span id 0")
	}
}

func TestTracerWritesSpans(t *testing.T) {
	tr := newTracer()
	tr.do("outer", 0, func(id int) {
		tr.do("inner", id, func(int) {})
	})
	path := filepath.Join(t.TempDir(), "spans.json")
	if _, err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Spans) != 2 || out.Spans[1].Parent != out.Spans[0].ID || len(out.Layers) != 2 {
		t.Fatalf("written trace = %+v", out)
	}
}
