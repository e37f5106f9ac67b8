package jobs

import (
	"encoding/json"
	"strings"
	"testing"

	"jayanti98/internal/campaign"
)

// mustID hashes the spec or fails the test.
func mustID(t *testing.T, s *Spec) string {
	t.Helper()
	id, err := s.ID()
	if err != nil {
		t.Fatalf("ID(%+v): %v", s, err)
	}
	return id
}

func TestSpecIDDeterministic(t *testing.T) {
	mk := func() *Spec {
		return &Spec{Kind: KindExplore, Explore: &ExploreSpec{Mode: "fuzz", Samples: 50}}
	}
	a, b := mustID(t, mk()), mustID(t, mk())
	if a != b {
		t.Fatalf("same spec hashed differently: %s vs %s", a, b)
	}
	if len(a) != 64 || strings.ToLower(a) != a {
		t.Fatalf("ID %q is not lowercase sha256 hex", a)
	}
}

func TestSpecIDDefaultsInvariant(t *testing.T) {
	cases := []struct {
		name           string
		sparse, filled *Spec
	}{
		{
			"explore fuzz defaults",
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{}},
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{
				Alg: "group-update", Object: "fetch-increment",
				N: 2, OpsPerProc: 1, Mode: "fuzz", Samples: 200, Seed: 1,
			}},
		},
		{
			"explore nil sub-spec",
			&Spec{Kind: KindExplore},
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{}},
		},
		{
			// Exhaustive search ignores sampling knobs entirely.
			"explore exhaustive zeroes sampling",
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{Mode: "exhaustive"}},
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{Mode: "exhaustive", Samples: 999, Seed: 7}},
		},
		{
			"report all experiments == none",
			&Spec{Kind: KindReport, Report: &ReportSpec{}},
			&Spec{Kind: KindReport, Report: &ReportSpec{
				Experiments: []string{"E1", "E2", "E3", "E4/E5", "E6", "E7/E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15"},
			}},
		},
		{
			"report subset order-insensitive",
			&Spec{Kind: KindReport, Report: &ReportSpec{Experiments: []string{"E9", "E1"}}},
			&Spec{Kind: KindReport, Report: &ReportSpec{Experiments: []string{"E1", "E9"}}},
		},
		{
			"sweep default maxN",
			&Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue"}},
			&Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", MaxN: 64}},
		},
		{
			"sweep full construction set == none",
			&Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "stack"}},
			&Spec{Kind: KindSweep, Sweep: &SweepSpec{
				Type: "stack", Constructions: []string{"central", "group-update", "herlihy"},
			}},
		},
		{
			"sweep construction order-insensitive",
			&Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", Constructions: []string{"central", "herlihy"}}},
			&Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", Constructions: []string{"herlihy", "central"}}},
		},
		{
			// Zoo algorithms default Object to their own workload, and the
			// backend's alias spellings collapse to one ID ("" == native).
			"explore zoo defaults and backend aliases",
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{Alg: "tas-tournament", N: 3, LLSC: "blelloch-wei"}},
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{
				Alg: "tas-tournament", Object: "tas",
				N: 3, OpsPerProc: 1, Mode: "fuzz", Samples: 200, Seed: 1, LLSC: "bw",
			}},
		},
		{
			"explore native backend == empty",
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{Alg: "tas-tv", LLSC: "native"}},
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{Alg: "tas-tv"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := mustID(t, tc.sparse), mustID(t, tc.filled)
			if a != b {
				t.Fatalf("equivalent specs hashed differently:\n  sparse: %s\n  filled: %s", a, b)
			}
		})
	}
}

func TestSpecIDNormalizeIdempotent(t *testing.T) {
	s := &Spec{Kind: KindExplore, Explore: &ExploreSpec{Mode: "fuzz"}}
	first := mustID(t, s)
	// Hashing again after normalization must not drift.
	second := mustID(t, s)
	if first != second {
		t.Fatalf("ID not idempotent: %s vs %s", first, second)
	}
}

func TestSpecIDDistinguishes(t *testing.T) {
	specs := []*Spec{
		{Kind: KindReport},
		{Kind: KindReport, Report: &ReportSpec{Quick: true}},
		{Kind: KindReport, Report: &ReportSpec{Experiments: []string{"E1"}}},
		{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue"}},
		{Kind: KindSweep, Sweep: &SweepSpec{Type: "stack"}},
		{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", MaxN: 8}},
		{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", Constructions: []string{"central"}}},
		{Kind: KindExplore},
		{Kind: KindExplore, Explore: &ExploreSpec{Mode: "exhaustive"}},
		{Kind: KindExplore, Explore: &ExploreSpec{N: 3}},
		{Kind: KindExplore, Explore: &ExploreSpec{Samples: 500}},
		{Kind: KindExplore, Explore: &ExploreSpec{Seed: 2}},
	}
	seen := make(map[string]int)
	for i, s := range specs {
		id := mustID(t, s)
		if prev, dup := seen[id]; dup {
			t.Fatalf("specs %d and %d collided on %s", prev, i, id)
		}
		seen[id] = i
	}
}

func TestSpecIDJSONFieldOrderInvariant(t *testing.T) {
	// Two wire encodings of one spec, keys in different orders.
	a := `{"kind":"explore","explore":{"n":3,"alg":"central","mode":"fuzz"}}`
	b := `{"explore":{"mode":"fuzz","alg":"central","n":3},"kind":"explore"}`
	var sa, sb Spec
	if err := json.Unmarshal([]byte(a), &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &sb); err != nil {
		t.Fatal(err)
	}
	if ia, ib := mustID(t, &sa), mustID(t, &sb); ia != ib {
		t.Fatalf("field order changed the hash: %s vs %s", ia, ib)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
		want string
	}{
		{"missing kind", &Spec{}, "missing kind"},
		{"unknown kind", &Spec{Kind: "bogus"}, "unknown kind"},
		{"two sub-specs", &Spec{Kind: KindReport, Report: &ReportSpec{}, Sweep: &SweepSpec{Type: "queue"}}, "exactly"},
		{"wrong sub-spec", &Spec{Kind: KindSweep, Report: &ReportSpec{}}, "exactly"},
		{"unknown experiment", &Spec{Kind: KindReport, Report: &ReportSpec{Experiments: []string{"E99"}}}, "unknown name"},
		{"duplicate experiment", &Spec{Kind: KindReport, Report: &ReportSpec{Experiments: []string{"E1", "E1"}}}, "duplicate"},
		{"unknown sweep type", &Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "tree"}}, "tree"},
		{"missing sweep type", &Spec{Kind: KindSweep}, ""},
		{"unknown construction", &Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", Constructions: []string{"magic"}}}, "magic"},
		{"sweep maxN too small", &Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", MaxN: 1}}, "out of range"},
		{"sweep maxN too large", &Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", MaxN: 1 << 21}}, "out of range"},
		{"explore unknown alg", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Alg: "nope"}}, "nope"},
		{"explore unknown object", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Object: "nope"}}, "nope"},
		{"explore n too large", &Spec{Kind: KindExplore, Explore: &ExploreSpec{N: 9}}, "out of range"},
		{"explore bad mode", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Mode: "guess"}}, "mode"},
		{"explore samples too large", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Samples: 2_000_000}}, "out of range"},
		{"explore negative budget", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Budget: -1}}, "negative"},
		{"explore zoo wrong workload", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Alg: "tas-tournament", Object: "fetch-increment"}}, "implements workload"},
		{"explore zoo multi-op", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Alg: "tas-tournament", OpsPerProc: 2}}, "one-shot"},
		{"explore zoo beyond maxN", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Alg: "tas-tv", N: 3}}, "at most"},
		{"explore bad backend", &Spec{Kind: KindExplore, Explore: &ExploreSpec{LLSC: "bogus"}}, "backend"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.ID(); err == nil {
				t.Fatalf("ID accepted invalid spec %+v", tc.spec)
			} else if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSpecIDExactFor63BitSeeds: specs whose int64 seeds lie above 2^53
// and differ only in their low bits are different jobs. A canonical
// encoding that rounds numbers through float64 gives them one ID, and
// the cache would then serve one spec's result for the other.
func TestSpecIDExactFor63BitSeeds(t *testing.T) {
	const seed = int64(1)<<62 + 1
	fuzz := func(seed int64) *Spec {
		return &Spec{Kind: KindExplore, Explore: &ExploreSpec{Mode: "fuzz", Samples: 8, Seed: seed}}
	}
	round := func(seed int64) *Spec {
		return &Spec{Kind: KindCampaignRound, CampaignRound: &campaign.RoundSpec{
			Campaign: campaign.Spec{Seed: seed, MaxRounds: 2},
		}}
	}
	for name, mk := range map[string]func(int64) *Spec{"fuzz": fuzz, "campaign round": round} {
		if a, b := mustID(t, mk(seed)), mustID(t, mk(seed+1)); a == b {
			t.Errorf("%s: seeds %d and %d share job ID %s", name, seed, seed+1, a)
		}
	}
}

// TestSpecIDPinned pins the job IDs of existing specs (every seed below
// 2^53), so a change to the canonical encoding cannot orphan cached
// results or journal records written by earlier versions.
func TestSpecIDPinned(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
		want string
	}{
		{"report", &Spec{Kind: KindReport, Report: &ReportSpec{Experiments: []string{"E7/E8", "E1"}, Quick: true}}, "c2d4ace4625ceec30b0ebdee2c5ffd83c4d54a1210e55894b5cc922ff3d0c81a"},
		{"sweep", &Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "fetch&increment", MaxN: 16}}, "db83fc3d33e2693a5b0cc918ae8eda74047134ac33c60117e9b2719ea3a732d9"},
		{"explore", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Alg: "central", N: 3, Mode: "exhaustive"}}, "05a7797b09ad2b3f876433b89eeea1983c38cb557bc94f1b3254d6bc95cfec55"},
		{"fuzz", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Alg: "herlihy", Samples: 64, Seed: 1<<52 + 7}}, "881896bd1cdd4b1390a9b49f4e08d76f525c03247b1885fe4a83be542f885e14"},
		{"campaign round", &Spec{Kind: KindCampaignRound, CampaignRound: &campaign.RoundSpec{
			Campaign: campaign.Spec{Seed: 42, TossRange: 4, BatchSize: 16, MaxRounds: 3},
			Round:    2,
			Corpus:   [][]int{{0, 1, 1}, {1, 0}},
		}}, "4513bf611a586d310e35619ca07d077eddd2e78e8e0a928638b067ae88536baa"},
	}
	for _, c := range cases {
		if got := mustID(t, c.spec); got != c.want {
			t.Errorf("%s: ID = %s, want %s", c.name, got, c.want)
		}
	}
}
