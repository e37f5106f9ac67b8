// Package dist is the distributed execution subsystem: it splits a
// shardable job spec into deterministic work units, leases them to a
// fleet of pull-based lbworker processes over HTTP, re-leases the units
// of crashed or stalled workers, and merges the uploaded shard results
// index-ordered into a payload byte-identical to the serial in-process
// run of the same spec.
//
// The determinism argument is the sweep engine's, lifted across process
// boundaries. Every shardable workload is a map over independent
// coordinates — (construction, n) grid points for a sweep job, sample
// indices for a fuzz campaign — and each coordinate derives everything
// it needs (in particular its RNG seed, via sweep.Seed/sweep.Derive)
// from the coordinate itself, never from which worker runs it, when, or
// alongside what. A shard is a contiguous coordinate range [Lo, Hi), so
// concatenating shard payloads in shard-index order reconstructs exactly
// the coordinate-ordered result slice of the serial loop, and the shared
// assembly helpers (jobs.BuildSweepResult, jobs.BuildFuzzResult) turn
// that slice into the job payload on both paths. Moving a shard
// boundary, re-leasing a shard after a worker crash, or running the
// whole job locally can therefore never change a byte of the result.
package dist

import (
	"context"
	"encoding/json"
	"fmt"

	"jayanti98/internal/campaign"
	"jayanti98/internal/explore"
	"jayanti98/internal/jobs"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/sweep"
	"jayanti98/internal/universal"
)

// Coords returns the number of independent coordinates of a normalized
// spec, and whether the spec is shardable at all. Report jobs (whole
// experiments with interleaved rendering) and exhaustive exploration
// (one shared DFS frontier) are not maps over independent coordinates,
// so they always execute locally. Campaign rounds shard over their input
// slots: the round spec carries the frozen round-start corpus, so every
// leased slice mutates from the same parents — the lease grant is the
// corpus-sync channel between lbworker replicas.
func Coords(spec *jobs.Spec) (int, bool) {
	if spec == nil {
		return 0, false
	}
	switch spec.Kind {
	case jobs.KindSweep:
		if spec.Sweep == nil {
			return 0, false
		}
		return len(spec.Sweep.ConstructionNames()) * len(spec.Sweep.Ns()), true
	case jobs.KindExplore:
		if spec.Explore == nil || spec.Explore.Mode != "fuzz" {
			return 0, false
		}
		return spec.Explore.Samples, true
	case jobs.KindCampaignRound:
		if spec.CampaignRound == nil {
			return 0, false
		}
		return spec.CampaignRound.Inputs(), true
	default:
		return 0, false
	}
}

// Range is a half-open interval [Lo, Hi) of coordinate indices — one
// shard's slice of the job.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of coordinates in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Partition splits n coordinates into at most `shards` contiguous,
// near-equal ranges that cover [0, n) in order. Fewer than `shards`
// ranges come back when there are fewer coordinates than shards (a
// shard always holds at least one coordinate); zero coordinates yield
// no ranges. The split is deterministic: the first n mod s ranges are
// one coordinate longer.
func Partition(n, shards int) []Range {
	if n <= 0 {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	out := make([]Range, 0, shards)
	width, extra := n/shards, n%shards
	lo := 0
	for i := 0; i < shards; i++ {
		hi := lo + width
		if i < extra {
			hi++
		}
		out = append(out, Range{Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

// sweepShardPayload is the wire form of one sweep shard's output: the
// measurements of its coordinate range, in coordinate order.
type sweepShardPayload struct {
	Results []lowerbound.ConstructionResult `json:"results"`
}

// fuzzShardPayload is the wire form of one fuzz shard's output: the
// summed step count of its sample range and the failures it found, in
// sample order.
type fuzzShardPayload struct {
	TotalSteps int                   `json:"totalSteps"`
	Failures   []jobs.ExploreFailure `json:"failures"`
}

// campaignShardPayload is the wire form of one campaign-round shard's
// output: the input results of its slot range, in slot order.
type campaignShardPayload struct {
	Results []campaign.InputResult `json:"results"`
}

// ExecuteShard runs coordinates [r.Lo, r.Hi) of the spec and returns the
// shard payload. parallel bounds the worker goroutines inside the shard
// (sweep.Workers semantics); like every execution knob it cannot affect
// the payload bytes. Workers call this; the coordinator calls it for
// nothing — it only merges.
func ExecuteShard(ctx context.Context, spec *jobs.Spec, r Range, parallel int) ([]byte, error) {
	n, ok := Coords(spec)
	if !ok {
		return nil, fmt.Errorf("dist: spec kind %q is not shardable", spec.Kind)
	}
	if r.Lo < 0 || r.Hi > n || r.Lo >= r.Hi {
		return nil, fmt.Errorf("dist: shard range [%d, %d) outside the %d-coordinate grid", r.Lo, r.Hi, n)
	}
	switch spec.Kind {
	case jobs.KindSweep:
		return executeSweepShard(ctx, spec.Sweep, r, parallel)
	case jobs.KindCampaignRound:
		return executeCampaignShard(ctx, spec.CampaignRound, r, parallel)
	default:
		return executeFuzzShard(ctx, spec.Explore, r, parallel)
	}
}

// executeSweepShard measures the (construction, n) grid points of the
// range. Coordinate index ci maps to construction ci/len(ns) and process
// count ns[ci%len(ns)] — the same construction-major order runSweep and
// BuildSweepResult use.
func executeSweepShard(ctx context.Context, spec *jobs.SweepSpec, r Range, parallel int) ([]byte, error) {
	st, err := lowerbound.SweepTypeFor(spec.Type)
	if err != nil {
		return nil, err
	}
	ns := spec.Ns()
	names := spec.ConstructionNames()
	results, err := sweep.Map(ctx, parallel, r.Len(), func(i int) (lowerbound.ConstructionResult, error) {
		ci := r.Lo + i
		name := names[ci/len(ns)]
		n := ns[ci%len(ns)]
		mk := func(n int) universal.Construction {
			return universal.Must(universal.New(name, st.New(n), n, 0))
		}
		return lowerbound.MeasureConstruction(mk, st.Op, n)
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(sweepShardPayload{Results: results})
}

// executeFuzzShard runs samples [r.Lo, r.Hi) of the campaign. The
// FuzzOptions offset keeps the global sample indices — and therefore the
// sweep.Derive seeds — identical to the unsplit campaign's.
func executeFuzzShard(ctx context.Context, spec *jobs.ExploreSpec, r Range, parallel int) ([]byte, error) {
	rep, err := explore.FuzzCtx(ctx, explore.Config{
		Alg:        spec.Alg,
		Object:     spec.Object,
		N:          spec.N,
		OpsPerProc: spec.OpsPerProc,
		Budget:     spec.Budget,
	}, explore.FuzzOptions{
		Samples: r.Len(),
		Offset:  r.Lo,
		Seed:    spec.Seed,
		Workers: parallel,
	})
	if err != nil {
		return nil, err
	}
	failures := make([]jobs.ExploreFailure, 0, len(rep.Failures))
	for _, f := range rep.Failures {
		failures = append(failures, jobs.NewExploreFailure(f))
	}
	return json.Marshal(fuzzShardPayload{TotalSteps: rep.TotalSteps, Failures: failures})
}

// executeCampaignShard runs input slots [r.Lo, r.Hi) of a campaign round.
// Every slot derives its seed from its global index and mutates from the
// corpus frozen in the round spec, so the slice is independent of which
// worker runs it — campaign.ExecuteRoundSlice's contract.
func executeCampaignShard(ctx context.Context, rs *campaign.RoundSpec, r Range, parallel int) ([]byte, error) {
	results, err := campaign.ExecuteRoundSlice(ctx, rs, r.Lo, r.Hi, parallel)
	if err != nil {
		return nil, err
	}
	return json.Marshal(campaignShardPayload{Results: results})
}

// Merge reassembles the shard payloads of a fully executed job — one per
// Partition range, in range order — into the job result. The output is
// byte-identical to jobs.Execute of the same spec: both paths feed the
// same coordinate-ordered inputs to the same assembly helpers.
func Merge(spec *jobs.Spec, ranges []Range, payloads [][]byte) ([]byte, error) {
	total, ok := Coords(spec)
	if !ok {
		return nil, fmt.Errorf("dist: spec kind %q is not shardable", spec.Kind)
	}
	if len(ranges) != len(payloads) {
		return nil, fmt.Errorf("dist: %d ranges but %d payloads", len(ranges), len(payloads))
	}
	switch spec.Kind {
	case jobs.KindSweep:
		flat := make([]lowerbound.ConstructionResult, 0, total)
		for i, raw := range payloads {
			var p sweepShardPayload
			if err := json.Unmarshal(raw, &p); err != nil {
				return nil, fmt.Errorf("dist: shard %d payload: %w", i, err)
			}
			if len(p.Results) != ranges[i].Len() {
				return nil, fmt.Errorf("dist: shard %d has %d results, want %d", i, len(p.Results), ranges[i].Len())
			}
			flat = append(flat, p.Results...)
		}
		res, err := jobs.BuildSweepResult(spec.Sweep, flat)
		if err != nil {
			return nil, err
		}
		return marshalPayload(res)
	case jobs.KindCampaignRound:
		results := make([]campaign.InputResult, 0, total)
		for i, raw := range payloads {
			var p campaignShardPayload
			if err := json.Unmarshal(raw, &p); err != nil {
				return nil, fmt.Errorf("dist: shard %d payload: %w", i, err)
			}
			if len(p.Results) != ranges[i].Len() {
				return nil, fmt.Errorf("dist: shard %d has %d results, want %d", i, len(p.Results), ranges[i].Len())
			}
			results = append(results, p.Results...)
		}
		return marshalPayload(&campaign.RoundResult{Round: spec.CampaignRound.Round, Results: results})
	default:
		totalSteps := 0
		failures := make([]jobs.ExploreFailure, 0)
		for i, raw := range payloads {
			var p fuzzShardPayload
			if err := json.Unmarshal(raw, &p); err != nil {
				return nil, fmt.Errorf("dist: shard %d payload: %w", i, err)
			}
			totalSteps += p.TotalSteps
			failures = append(failures, p.Failures...)
		}
		return marshalPayload(jobs.BuildFuzzResult(spec.Explore, totalSteps, failures))
	}
}

// marshalPayload mirrors the tail of jobs.Execute: the assembled result
// marshalled through the identical static type, so the merged bytes and
// the serial bytes can only differ if the values differ.
func marshalPayload(v any) ([]byte, error) {
	return json.Marshal(v)
}
