package main

import (
	"fmt"
	"math/rand"

	"jayanti98/internal/jobs"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/universal"
)

// Every input the benchmark hands the program comes from this file, as a
// pure function of the workload seed: the same seed gives the same toss
// assignments, fuzz and campaign seeds, job spec streams and tenant
// assignment; another seed gives others. The program sees only the
// generated inputs.

// derive mixes the workload seed with a stream label into an independent
// 63-bit seed (splitmix64 finalizer).
func derive(seed int64, stream uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + (stream+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// Stream labels: each consumer of randomness draws from its own stream.
const (
	streamTosses uint64 = iota + 1
	streamCampaign
	streamPool
	streamClient0
	streamClient1
	streamTenants
	streamFleet
	streamPrefixes
	streamSmall
	streamFleetWarm
)

// adversaryNs are the process counts the adversary battery runs at.
var adversaryNs = []int{64, 128, 256}

// tossSeed is the HashTosses seed of the randomized double-register
// wakeup.
func tossSeed(seed int64) int64 { return derive(seed, streamTosses) }

// campaignSeed is the base seed of the explore workload's campaign.
func campaignSeed(seed int64) int64 { return derive(seed, streamCampaign) }

// fuzzAlgs are the constructions and zoo entries tiny fuzz jobs explore,
// with the process count each runs at.
var fuzzAlgs = []struct {
	alg string
	n   int
}{
	{"group-update", 2}, {"herlihy", 2}, {"central", 3}, {"tas-tv", 2},
}

// specStream yields job specs of one closed-loop client. Fresh specs are
// distinct from every spec any other stream yields: each stream's fuzz
// seeds share random high bits drawn from the workload seed. Fuzz seeds
// stay below 2^52, inside the range of integers a JSON number carries
// exactly; jobs.Spec.Canonical round-trips specs through float64, so
// seeds above 2^53 that differ only in low bits share one job ID.
type specStream struct {
	rng  *rand.Rand
	base int64 // fuzz seeds are base|k for the stream's k-th fuzz spec
	next int64
	// extra holds the stream's share of the finite sweep/report specs,
	// each submitted fresh exactly once.
	extra []jobs.Spec
}

func newSpecStream(seed int64, stream uint64, extra []jobs.Spec) *specStream {
	return &specStream{
		rng:   rand.New(rand.NewSource(derive(seed, stream))),
		base:  derive(seed, stream+100) & (1<<52 - 1) &^ (1<<20 - 1),
		extra: extra,
	}
}

// fuzzSpec returns a tiny fuzz explore job: samples schedules of a
// randomly chosen system with a seed unique to this stream (up to 2^20
// specs per stream).
func (s *specStream) fuzzSpec(samples int) jobs.Spec {
	a := fuzzAlgs[s.rng.Intn(len(fuzzAlgs))]
	s.next++
	return jobs.Spec{Kind: jobs.KindExplore, Explore: &jobs.ExploreSpec{
		Alg: a.alg, N: a.n, Mode: "fuzz", Samples: samples,
		Seed: s.base | s.next,
	}}
}

// fresh returns the next spec the stream has not submitted before: one
// of its sweep/report specs one time in eight while any remain, else a
// tiny fuzz job.
func (s *specStream) fresh() jobs.Spec {
	if len(s.extra) > 0 && s.rng.Intn(8) == 0 {
		spec := s.extra[0]
		s.extra = s.extra[1:]
		return spec
	}
	return s.fuzzSpec(10)
}

// smallSpecs lists the finite set of small sweep and report jobs, in an
// order shuffled by seed: sweeps of every type over every single
// construction up to n = 4 and 8, and the quick E1 report.
func smallSpecs(seed int64) []jobs.Spec {
	var out []jobs.Spec
	for _, typ := range lowerbound.SweepTypes() {
		for _, c := range universal.Names() {
			for _, maxN := range []int{4, 8} {
				out = append(out, jobs.Spec{Kind: jobs.KindSweep, Sweep: &jobs.SweepSpec{
					Type: typ, Constructions: []string{c}, MaxN: maxN,
				}})
			}
		}
	}
	out = append(out, jobs.Spec{Kind: jobs.KindReport, Report: &jobs.ReportSpec{Experiments: []string{"E1"}, Quick: true}})
	rng := rand.New(rand.NewSource(derive(seed, streamSmall)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// serviceInputs is everything the service workload submits.
type serviceInputs struct {
	// pool is the set of finished specs resubmissions draw from at the
	// start: its results are placed in the cache directory before the
	// server starts. It is larger than the server's in-memory cache.
	pool []jobs.Spec
	// clients are the two closed-loop clients' fresh-spec streams.
	clients [2]*specStream
	// tenantOf maps client index to tenant index.
	tenantOf [2]int
}

// servicePoolSize is the number of pre-finished specs; it exceeds
// serviceCacheEntries so repeat hits split between memory and disk.
const (
	servicePoolSize     = 48
	serviceCacheEntries = 16
)

func newServiceInputs(seed int64) serviceInputs {
	small := smallSpecs(seed)
	in := serviceInputs{
		clients: [2]*specStream{
			newSpecStream(seed, streamClient0, small[:len(small)/2]),
			newSpecStream(seed, streamClient1, small[len(small)/2:]),
		},
	}
	pool := newSpecStream(seed, streamPool, nil)
	for range servicePoolSize {
		in.pool = append(in.pool, pool.fuzzSpec(10))
	}
	if rand.New(rand.NewSource(derive(seed, streamTenants))).Intn(2) == 1 {
		in.tenantOf = [2]int{1, 0}
	} else {
		in.tenantOf = [2]int{0, 1}
	}
	return in
}

// serverShards is lbserver's default -dist-shards: the most shards one
// job is split into.
const serverShards = 8

// fleetSamples is the fuzz sample count of a fleet job: 8 schedules a
// shard.
const fleetSamples = 8 * serverShards

func newFleetStream(seed int64) *specStream { return newSpecStream(seed, streamFleet, nil) }

// specID normalizes spec and returns its content hash.
func specID(spec *jobs.Spec) (string, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return "", err
	}
	id, err := spec.ID()
	if err != nil {
		return "", fmt.Errorf("hashing spec: %w", err)
	}
	return id, nil
}
