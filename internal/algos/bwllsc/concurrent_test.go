package bwllsc_test

import (
	"sync"
	"testing"

	"jayanti98/internal/algos/bwllsc"
	"jayanti98/internal/shmem"
)

// These tests drive the CAS backend from real goroutines through the shared
// llsc.Handle port, so `go test -race` sees the announcement and head
// atomics race for real. Move is left out: it is atomic only under the
// step-driven executors (see the package comment).

func TestConcurrentSCAtMostOneWinnerPerLink(t *testing.T) {
	// All goroutines LL the same register, then all attempt SC: exactly
	// one must win (they all hold links to the same version).
	const n = 16
	m := bwllsc.New(n)
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	wins := make(chan int, n)
	ready.Add(n)
	done.Add(n)
	for pid := 0; pid < n; pid++ {
		go func(pid int) {
			defer done.Done()
			h := m.Handle(pid)
			h.LL(0)
			ready.Done()
			<-start
			if ok, _ := h.SC(0, pid); ok {
				wins <- pid
			}
		}(pid)
	}
	ready.Wait()
	close(start)
	done.Wait()
	close(wins)
	count := 0
	for range wins {
		count++
	}
	if count != 1 {
		t.Fatalf("%d successful SCs, want exactly 1", count)
	}
}

func TestConcurrentRetryIncrementCountsEveryIncrement(t *testing.T) {
	// Each goroutine increments register 0 with an LL/SC retry loop; an
	// increment is lost exactly when an SC succeeds over a stale link.
	const n, perPid = 8, 200
	m := bwllsc.New(n, bwllsc.WithInit(func(int) shmem.Value { return 0 }))
	var wg sync.WaitGroup
	wg.Add(n)
	for pid := 0; pid < n; pid++ {
		go func(pid int) {
			defer wg.Done()
			h := m.Handle(pid)
			for i := 0; i < perPid; i++ {
				for {
					if ok, _ := h.SC(0, h.LL(0).(int)+1); ok {
						break
					}
				}
			}
		}(pid)
	}
	wg.Wait()
	if got := m.ReadQuiesced(0); got != n*perPid {
		t.Fatalf("final value %v, want %d", got, n*perPid)
	}
}
