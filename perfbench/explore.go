package main

import (
	"context"
	"fmt"
	"time"

	"jayanti98/internal/campaign"
	"jayanti98/internal/explore"
)

// space is one exhaustive schedule space with the Report counters the
// explorer must reproduce. The counts do not depend on the workload seed
// (exhaustive search explores every schedule); the first six match
// TestExhaustiveGolden, the two-ops-per-process group-update space is
// pinned here.
type space struct {
	cfg                               explore.Config
	states, runs, complete, truncated int
	long                              bool // skipped in short mode
}

var exploreSpaces = []space{
	{cfg: explore.Config{Alg: "central", Object: "fetch-increment", N: 3, OpsPerProc: 1}, states: 507, runs: 700, complete: 126},
	{cfg: explore.Config{Alg: "group-update", Object: "fetch-increment", N: 2, OpsPerProc: 1}, states: 384, runs: 607, complete: 48},
	{cfg: explore.Config{Alg: "herlihy", Object: "fetch-increment", N: 2, OpsPerProc: 1}, states: 312, runs: 499, complete: 48},
	{cfg: explore.Config{Alg: "group-update", Object: "fetch-increment", N: 2, OpsPerProc: 2}, states: 27118, runs: 43633, complete: 3012, long: true},
	{cfg: explore.Config{Alg: "tas-tv", Object: "tas", N: 2, OpsPerProc: 1}, states: 532, runs: 957, complete: 50, truncated: 218},
	{cfg: explore.Config{Alg: "tas-tournament", Object: "tas", N: 2, OpsPerProc: 1, LLSC: "native"}, states: 1594, runs: 2741, complete: 140, truncated: 536},
	{cfg: explore.Config{Alg: "tas-tournament", Object: "tas", N: 2, OpsPerProc: 1, LLSC: "bw"}, states: 1594, runs: 2741, complete: 140, truncated: 536},
}

// campaignRoundsPerPass is the number of campaign rounds after each sweep
// of the spaces: at about 15 ms a round, two blocks of tail samples a pass.
const campaignRoundsPerPass = 400

// newCampaign starts a group-update campaign with the default batch and
// corpus sizes and a seed drawn from the workload seed.
func newCampaign(seed int64) *campaign.State {
	spec := campaign.Spec{Alg: "group-update", Object: "fetch-increment", N: 2, Seed: campaignSeed(seed)}
	spec.Normalize()
	return campaign.NewState(spec)
}

// exhaustive explores one space with one worker and checks its counters.
func exhaustive(tr *tracer, parent int, sp space) (*explore.Report, error) {
	var rep *explore.Report
	var err error
	tr.do("explore.Exhaustive", parent, func(int) {
		rep, err = explore.Exhaustive(sp.cfg, 1)
	})
	switch {
	case err != nil:
		return nil, err
	case rep.Failure != nil:
		return rep, fmt.Errorf("%s n=%d: unexpected failure: %v", sp.cfg.Alg, sp.cfg.N, rep.Failure)
	case rep.States != sp.states || rep.Runs != sp.runs || rep.Complete != sp.complete || rep.Truncated != sp.truncated:
		return rep, fmt.Errorf("%s n=%d ops=%d llsc=%q: got states=%d runs=%d complete=%d truncated=%d, want %d/%d/%d/%d",
			sp.cfg.Alg, sp.cfg.N, sp.cfg.OpsPerProc, sp.cfg.LLSC, rep.States, rep.Runs, rep.Complete, rep.Truncated,
			sp.states, sp.runs, sp.complete, sp.truncated)
	}
	return rep, nil
}

// campaignRound executes and folds one campaign round, checking that the
// (correct) construction produced no failing input.
func campaignRound(tr *tracer, parent int, st *campaign.State) (campaign.RoundDelta, error) {
	var rr *campaign.RoundResult
	var err error
	tr.do("campaign.ExecuteRound", parent, func(int) {
		rr, err = campaign.ExecuteRound(context.Background(), st.NextRound(), 1)
	})
	if err != nil {
		return campaign.RoundDelta{}, err
	}
	var delta campaign.RoundDelta
	tr.do("campaign.ApplyRound", parent, func(int) {
		delta, err = st.ApplyRound(rr)
	})
	if err == nil && len(delta.Failures) > 0 {
		err = fmt.Errorf("campaign round: %d failing inputs on a correct construction", len(delta.Failures))
	}
	return delta, err
}

// runExplore alternates a sweep of every exhaustive space with a block of
// campaign rounds, in whole passes, starting passes until the run time is
// used (a pass took about 14 s on a two-CPU Intel Xeon container). One goroutine;
// nothing here touches core's UP rules, the wakeup codec or the service.
func runExplore(cfg runConfig, tr *tracer) (*result, error) {
	spaces := exploreSpaces
	rounds := campaignRoundsPerPass
	if cfg.short {
		spaces = nil
		for _, sp := range exploreSpaces {
			if !sp.long {
				spaces = append(spaces, sp)
			}
		}
		rounds = 20
	}

	// Set-up: the smallest space and a fresh campaign's first rounds,
	// setUpRepeats times.
	var setups []float64
	for range setUpRepeats {
		t0 := time.Now()
		if _, err := exhaustive(nil, 0, exploreSpaces[1]); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		st := newCampaign(cfg.seed)
		for range 10 {
			if _, err := campaignRound(nil, 0, st); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	res := newResult()
	res.setupS = median(setups)
	st := newCampaign(cfg.seed)
	spaceTimes := make([][]float64, len(spaces))
	var lat latency
	start := time.Now()
	for {
		for i, sp := range spaces {
			root := tr.start("explore.space", 0)
			t0 := time.Now()
			_, err := exhaustive(tr, root, sp)
			spaceTimes[i] = append(spaceTimes[i], time.Since(t0).Seconds())
			tr.end(root)
			res.tally.record(err)
		}
		for range rounds {
			root := tr.start("campaign.round", 0)
			t0 := time.Now()
			_, err := campaignRound(tr, root, st)
			lat.add(ms(time.Since(t0)))
			tr.end(root)
			res.tally.record(err)
		}
		if cfg.short || time.Since(start) >= cfg.duration {
			break
		}
	}
	if st.Corpus.Len() == 0 {
		res.tally.record(fmt.Errorf("campaign kept no corpus entries"))
	}
	res.op = lat
	// States per second of the whole battery, from each space's median
	// time: the pinned state counts are the work, whatever the pass count.
	var states int
	var battery float64
	for i, sp := range spaces {
		states += sp.states
		battery += median(spaceTimes[i])
	}
	res.workPerS = float64(states) / battery
	var err error
	if res.maxRSSMB, err = peakRSSMB("/proc/self/status"); err != nil {
		return nil, err
	}
	return res, nil
}
