package main

import (
	"reflect"
	"testing"

	"jayanti98/internal/jobs"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/universal"
)

// specIDs drains n fresh specs from a stream and returns their job IDs.
func specIDs(t *testing.T, s *specStream, n int) []string {
	t.Helper()
	var ids []string
	for range n {
		spec := s.fresh()
		id, err := specID(&spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

func TestInputsAreSeedDeterministic(t *testing.T) {
	a, b := newServiceInputs(7), newServiceInputs(7)
	if !reflect.DeepEqual(a.pool, b.pool) || a.tenantOf != b.tenantOf {
		t.Fatal("the same seed gave different pools or tenant assignments")
	}
	for i := range a.clients {
		if !reflect.DeepEqual(specIDs(t, a.clients[i], 200), specIDs(t, b.clients[i], 200)) {
			t.Fatalf("client %d: the same seed gave different spec streams", i)
		}
	}
	if tossSeed(7) != tossSeed(7) || campaignSeed(7) == tossSeed(7) {
		t.Fatal("toss and campaign seeds must be pure and distinct")
	}

	c := newServiceInputs(8)
	if reflect.DeepEqual(a.pool, c.pool) {
		t.Fatal("another seed gave the same pool")
	}
	if tossSeed(7) == tossSeed(8) || campaignSeed(7) == campaignSeed(8) {
		t.Fatal("another seed gave the same toss or campaign seed")
	}
}

// TestFreshSpecsAreDistinct checks that no spec is submitted fresh twice
// across the two clients and the pool, which would turn a fresh job into a
// cache hit, and that fuzz seeds stay exact in JSON.
func TestFreshSpecsAreDistinct(t *testing.T) {
	in := newServiceInputs(3)
	seen := map[string]bool{}
	add := func(spec jobs.Spec) {
		id, err := specID(&spec)
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("spec %+v repeats job ID %s", spec, id[:12])
		}
		seen[id] = true
		if spec.Explore != nil && (spec.Explore.Seed <= 0 || spec.Explore.Seed >= 1<<52) {
			t.Fatalf("fuzz seed %d outside (0, 2^52)", spec.Explore.Seed)
		}
	}
	for _, spec := range in.pool {
		add(spec)
	}
	for _, c := range in.clients {
		for range 500 {
			add(c.fresh())
		}
	}
	fleet := newFleetStream(3)
	for range 200 {
		add(fleet.fuzzSpec(fleetSamples))
	}
	if got, want := len(smallSpecs(3)), len(lowerbound.SweepTypes())*len(universal.Names())*2+1; got != want {
		t.Errorf("small specs = %d, want every type × construction × 2 sizes + 1 report = %d", got, want)
	}
}

func TestAdversaryBatteryShape(t *testing.T) {
	items := adversaryBattery(1, adversaryNs)
	if len(items) != 14*len(adversaryNs) {
		t.Fatalf("battery has %d items, want 14 per n", len(items))
	}
}
