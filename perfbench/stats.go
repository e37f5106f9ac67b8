package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tailLadder is the set of percentiles a tail of fewer than tailBlock
// samples may report, highest first. The tail rule picks the highest one
// that still has at least minBeyond samples above it, so a short run never
// reports a tail that rests on one or two samples.
var tailLadder = []float64{90, 75, 50}

const minBeyond = 10

// A tail is reported as the p95 of consecutive blocks of at least
// tailBlock samples (at most maxTailBlocks blocks), median over the
// blocks: a p95 of 200 samples has ten beyond it, and the median over
// blocks discounts a burst in which a neighbour on the machine slowed a
// few seconds of the run. A single p99 of the whole run moved by more
// than a third between runs of the same code on a shared two-CPU host.
const (
	tailQ         = 95
	tailBlock     = 200
	maxTailBlocks = 10
)

// percentile returns the q-th percentile (0 < q ≤ 100) of sorted by the
// nearest-rank rule. sorted must be non-empty and ascending.
func percentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailPercentile returns the highest percentile of tailLadder that has at
// least minBeyond samples beyond it among n samples, and false when even
// the median does not (fewer than 2*minBeyond samples).
func tailPercentile(n int) (float64, bool) {
	for _, q := range tailLadder {
		if float64(n)*(100-q)/100 >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// latency summarizes one class of timed operations in milliseconds.
type latency struct {
	samples []float64
}

func (l *latency) add(ms float64) { l.samples = append(l.samples, ms) }

func (l *latency) sorted() []float64 {
	s := append([]float64(nil), l.samples...)
	sort.Float64s(s)
	return s
}

// median is the 50th percentile; 0 when there are no samples (the caller
// then has failed operations to report instead).
func (l *latency) median() float64 {
	if len(l.samples) == 0 {
		return 0
	}
	return percentile(l.sorted(), 50)
}

// tail is the median over blocks of each block's p95, for samples in
// the order they were taken. Below tailBlock samples it applies the tail
// rule to all of them instead, and with too few for any rung it falls back
// to the maximum, labelled "max", so the metric is still measured.
func (l *latency) tail() (value float64, label string) {
	n := len(l.samples)
	if n == 0 {
		return 0, "none"
	}
	if n < tailBlock {
		s := l.sorted()
		q, ok := tailPercentile(n)
		if !ok {
			return s[n-1], "max"
		}
		return percentile(s, q), fmt.Sprintf("p%g", q)
	}
	blocks := min(maxTailBlocks, n/tailBlock)
	tails := make([]float64, blocks)
	for i := range tails {
		b := append([]float64(nil), l.samples[i*n/blocks:(i+1)*n/blocks]...)
		sort.Float64s(b)
		tails[i] = percentile(b, tailQ)
	}
	return median(tails), fmt.Sprintf("p%d, median of %d blocks", tailQ, blocks)
}

// median of a small set of values, such as repeated set-up times.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tally counts the operations a workload attempted and those that failed
// or produced a wrong answer. Every correctness check reports through it,
// so a failed check can never pass silently: it lowers success_rate and
// makes the run's "correct" false.
type tally struct {
	attempted int
	failed    int
	firstErr  error
}

// record counts one operation; err == nil means it succeeded and every
// check on its output held.
func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// successRate is (attempted − failed) ÷ attempted, the complement of the
// error rate; 0 when nothing was attempted.
func (t *tally) successRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}
