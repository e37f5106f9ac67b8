// Package campaign is the continuous coverage-guided exploration service:
// the OSS-Fuzz shape applied to schedule space. A campaign is a long-lived
// search over the interleavings of one construction/workload pair that
// runs in rounds, indefinitely: each round executes a batch of schedules —
// mutations of corpus entries alongside fresh seeded random walks — and
// keeps the schedules whose state-digest trace (explore.RunGuided) reached
// product states no prior input did. Any linearizability or lemma
// violation is automatically shrunk (explore.ShrinkCtx), persisted as a
// bit-for-bit replay file, and surfaced in the campaign's stats.
//
// Determinism is inherited from the exploration harness and structured the
// same way the sweep engine's is: round r's input slot s derives its
// private seed with sweep.Derive(Spec.Seed, r*BatchSize+s), every input is
// a pure function of (spec, corpus-at-round-start, global slot index), and
// round results are merged in slot order. Corpus evolution is therefore a
// pure function of the spec — independent of worker counts, engines, and
// of which lbworker executed which slice of a round — which is what lets
// rounds ride the internal/dist shard-lease protocol and land in the
// content-addressed cache like any other job, and what makes a checkpoint
// resume byte-identical.
package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"jayanti98/internal/algos"
	"jayanti98/internal/explore"
	"jayanti98/internal/universal"
)

// Spec describes one campaign. Like a job spec it is content-hashed after
// normalization: the hash is the campaign ID, so resubmitting the same
// campaign attaches to the running one instead of forking a duplicate.
//
// Everything in the Spec participates in determinism — the corpus and
// coverage evolution are a pure function of it. Execution knobs (worker
// counts, checkpoint cadence, findings directory) live in ManagerOptions.
type Spec struct {
	// Alg is the system under test: one of universal.Names(), a zoo
	// algorithm (algos.Names()), or explore.BrokenGroupUpdate when built
	// with -tags mutation. Defaults to "group-update".
	Alg string `json:"alg,omitempty"`
	// Object is the workload (explore.Workloads()). Defaults to
	// "fetch-increment" for constructions and to the algorithm's own
	// workload for zoo entries.
	Object string `json:"object,omitempty"`
	// N is the number of processes (default 2).
	N int `json:"n,omitempty"`
	// OpsPerProc is operations per process (default 1).
	OpsPerProc int `json:"opsPerProc,omitempty"`
	// Budget bounds steps per run (0: automatic, explore.AutoBudget).
	Budget int `json:"budget,omitempty"`
	// Seed is the campaign base seed (default 1). Round r, slot s derives
	// sweep.Derive(Seed, r*BatchSize+s).
	Seed int64 `json:"seed,omitempty"`
	// TossRange is the exclusive upper bound on coin-toss outcomes
	// (default 2: coin flips).
	TossRange int64 `json:"tossRange,omitempty"`
	// BatchSize is the number of inputs per round (default 64). It is
	// part of campaign identity because the seed derivation indexes the
	// global input stream by r*BatchSize+s.
	BatchSize int `json:"batchSize,omitempty"`
	// MaxCorpus bounds the kept corpus (default 32); beyond it the oldest
	// entries are evicted. Eviction order is deterministic (insertion
	// order), so the bound preserves determinism.
	MaxCorpus int `json:"maxCorpus,omitempty"`
	// MaxRounds, when positive, stops the campaign after that many rounds
	// — campaigns run indefinitely by default (0). Useful for tests and
	// smoke runs; part of identity so a bounded campaign is a different
	// campaign than an unbounded one.
	MaxRounds int `json:"maxRounds,omitempty"`
}

// Normalize fills defaults in place so semantically identical specs share
// a campaign ID. It is idempotent.
func (s *Spec) Normalize() {
	if s.Alg == "" {
		s.Alg = "group-update"
	}
	if s.Object == "" {
		if zs, ok := algos.For(s.Alg); ok {
			s.Object = zs.Object
		} else {
			s.Object = "fetch-increment"
		}
	}
	if s.N == 0 {
		s.N = 2
	}
	if s.OpsPerProc == 0 {
		s.OpsPerProc = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.TossRange == 0 {
		s.TossRange = 2
	}
	if s.BatchSize == 0 {
		s.BatchSize = 64
	}
	if s.MaxCorpus == 0 {
		s.MaxCorpus = 32
	}
}

// Validate reports the first problem with the (normalized) spec.
func (s *Spec) Validate() error {
	zs, isZoo := algos.For(s.Alg)
	switch {
	case slices.Contains(universal.Names(), s.Alg):
	case isZoo:
		// Zoo algorithms (including the mutation-build-only broken TV
		// variant, which algos registers conditionally) are first-class
		// campaign targets via the raw explore mode.
	case s.Alg == explore.BrokenGroupUpdate && universal.MutantAvailable:
		// The deliberately broken variant is a first-class campaign target
		// (the smoke test hunts it), but only in -tags mutation builds.
	default:
		return fmt.Errorf("campaign: unknown construction or algorithm %q", s.Alg)
	}
	if !slices.Contains(explore.Workloads(), s.Object) {
		return fmt.Errorf("campaign: unknown workload %q", s.Object)
	}
	if s.N < 2 || s.N > 8 {
		return fmt.Errorf("campaign: n %d out of range [2, 8]", s.N)
	}
	if s.OpsPerProc < 1 || s.OpsPerProc > 8 {
		return fmt.Errorf("campaign: opsPerProc %d out of range [1, 8]", s.OpsPerProc)
	}
	if isZoo {
		// Mirror explore.newRawRunner's constraints at submit time.
		if s.Object != zs.Object {
			return fmt.Errorf("campaign: algorithm %s implements workload %q, got %q", s.Alg, zs.Object, s.Object)
		}
		if s.OpsPerProc != 1 {
			return fmt.Errorf("campaign: algorithm %s is one-shot (opsPerProc must be 1, got %d)", s.Alg, s.OpsPerProc)
		}
		if zs.MaxN > 0 && s.N > zs.MaxN {
			return fmt.Errorf("campaign: algorithm %s supports at most n = %d, got %d", s.Alg, zs.MaxN, s.N)
		}
	}
	if s.Budget < 0 {
		return fmt.Errorf("campaign: budget %d negative", s.Budget)
	}
	if s.TossRange < 1 {
		return fmt.Errorf("campaign: tossRange %d must be >= 1", s.TossRange)
	}
	if s.BatchSize < 1 || s.BatchSize > 4096 {
		return fmt.Errorf("campaign: batchSize %d out of range [1, 4096]", s.BatchSize)
	}
	if s.MaxCorpus < 1 || s.MaxCorpus > 1024 {
		return fmt.Errorf("campaign: maxCorpus %d out of range [1, 1024]", s.MaxCorpus)
	}
	if s.MaxRounds < 0 {
		return fmt.Errorf("campaign: maxRounds %d negative", s.MaxRounds)
	}
	return nil
}

// ExploreConfig builds the exploration Config the campaign's runs use.
func (s *Spec) ExploreConfig() explore.Config {
	return explore.Config{
		Alg:        s.Alg,
		Object:     s.Object,
		N:          s.N,
		OpsPerProc: s.OpsPerProc,
		Budget:     s.Budget,
	}
}

// ID normalizes and validates the spec and returns its content hash: the
// lowercase hex SHA-256 of its CanonicalJSON encoding (the same scheme job
// IDs use). The ID doubles as the checkpoint key in the jobs cache.
func (s *Spec) ID() (string, error) {
	s.Normalize()
	if err := s.Validate(); err != nil {
		return "", err
	}
	canon, err := CanonicalJSON(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// CanonicalJSON marshals v and re-serializes it through a generic value,
// so object keys sort and the bytes are independent of struct field
// order. Numbers are decoded as json.Number and so keep their exact
// digits: an int64 seed above 2^53 does not round through float64, and
// two specs whose seeds differ only in their low bits hash apart. Below
// 2^53 the bytes equal those of a float64 round trip, which keeps the IDs
// of existing caches, journals and checkpoints valid.
func CanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("campaign: canonical encoding: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var generic any
	if err := dec.Decode(&generic); err != nil {
		return nil, fmt.Errorf("campaign: canonical encoding: %w", err)
	}
	out, err := json.Marshal(generic)
	if err != nil {
		return nil, fmt.Errorf("campaign: canonical encoding: %w", err)
	}
	return out, nil
}
