package main

import (
	"errors"
	"testing"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{199, 90, true},
		{100, 90, true}, // exactly ten beyond p90
		{99, 75, true},  // 9.9 beyond p90: too few
		{40, 75, true},
		{39, 50, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestLatencyTail(t *testing.T) {
	// Five blocks of 200; block k holds k*1000 + 1..200, except that the
	// last block is a burst ten times slower.
	var l latency
	for k := range 5 {
		for i := 200; i >= 1; i-- {
			v := float64(k*1000 + i)
			if k == 4 {
				v *= 10
			}
			l.add(v)
		}
	}
	// Block p95s: 190, 1190, 2190, 3190, 41900; their median is 2190.
	if v, label := l.tail(); v != 2190 || label != "p95, median of 5 blocks" {
		t.Errorf("tail = %v (%s), want 2190 (p95, median of 5 blocks)", v, label)
	}
	if m := l.median(); m != 2100 {
		t.Errorf("median = %v, want 2100", m)
	}

	var many latency
	for i := range 5000 {
		many.add(float64(i))
	}
	if _, label := many.tail(); label != "p95, median of 10 blocks" {
		t.Errorf("5000 samples: tail reported as %s, want at most 10 blocks", label)
	}

	var short latency
	for i := 1; i <= 150; i++ {
		short.add(float64(i))
	}
	if v, label := short.tail(); v != 135 || label != "p90" {
		t.Errorf("tail of 1..150 = %v (%s), want 135 (p90)", v, label)
	}

	var few latency
	few.add(3)
	few.add(7)
	if v, label := few.tail(); v != 7 || label != "max" {
		t.Errorf("tail of two samples = %v (%s), want 7 (max)", v, label)
	}
}

func TestTallyCountsEveryFailure(t *testing.T) {
	var tl tally
	if got := tl.successRate(); got != 0 {
		t.Errorf("empty tally success rate = %v, want 0", got)
	}
	first := errors.New("first")
	tl.record(nil)
	tl.record(first)
	tl.record(nil)
	tl.record(errors.New("second"))
	if tl.attempted != 4 || tl.failed != 2 || !errors.Is(tl.firstErr, first) {
		t.Fatalf("tally = %+v", tl)
	}
	if got := tl.successRate(); got != 0.5 {
		t.Errorf("success rate = %v, want 0.5", got)
	}
	var other tally
	other.record(nil)
	tl.merge(other)
	if tl.attempted != 5 || tl.failed != 2 || !errors.Is(tl.firstErr, first) {
		t.Errorf("merged tally = %+v", tl)
	}
	rep := finish(tl, nil)
	if rep.Correct || rep.Attempted != 5 || rep.Failed != 2 {
		t.Errorf("report = %+v, want incorrect 5/2", rep)
	}
	if rep := finish(other, nil); !rep.Correct {
		t.Errorf("a clean tally must report correct")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}
