package synth

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/par"
)

// fleetCSV canonicalizes a fleet to CSV bytes for exact comparison.
func fleetCSV(t *testing.T, rs []*dataset.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGenerateFleetRejectsInvalidSize(t *testing.T) {
	for _, n := range []int{0, -5} {
		if _, err := GenerateFleet(FleetConfig{Seed: 1, Servers: n}); err == nil {
			t.Errorf("fleet size %d accepted", n)
		}
	}
}

func TestGenerateFleetDeterministicAndSeedSensitive(t *testing.T) {
	a, err := GenerateFleet(FleetConfig{Seed: 5, Servers: 300})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateFleet(FleetConfig{Seed: 5, Servers: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetCSV(t, a), fleetCSV(t, b)) {
		t.Error("same seed produced different fleets")
	}
	c, err := GenerateFleet(FleetConfig{Seed: 6, Servers: 300})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fleetCSV(t, a), fleetCSV(t, c)) {
		t.Error("different seeds produced identical fleets")
	}
}

// TestGenerateFleetPrefixStability pins the shard contract: a smaller
// fleet is a strict prefix of a larger one at the same seed. The sizes
// straddle the 1024-server shard boundary so both the full-shard and
// partial-shard cases are covered.
func TestGenerateFleetPrefixStability(t *testing.T) {
	small, err := GenerateFleet(FleetConfig{Seed: 2, Servers: 1100})
	if err != nil {
		t.Fatal(err)
	}
	large, err := GenerateFleet(FleetConfig{Seed: 2, Servers: 2600})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetCSV(t, small), fleetCSV(t, large[:len(small)])) {
		t.Error("smaller fleet is not a prefix of the larger one")
	}
}

// TestGenerateFleetWorkerInvariance verifies the sharded generator is
// byte-identical at worker counts 1, 2 and 8.
func TestGenerateFleetWorkerInvariance(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	runAt := func(workers int) []byte {
		prevCap := par.SetMaxWorkers(workers)
		defer par.SetMaxWorkers(prevCap)
		rs, err := GenerateFleet(FleetConfig{Seed: 3, Servers: 3000})
		if err != nil {
			t.Fatal(err)
		}
		return fleetCSV(t, rs)
	}
	base := runAt(1)
	for _, workers := range []int{2, 8} {
		if !bytes.Equal(base, runAt(workers)) {
			t.Errorf("fleet differs at %d workers", workers)
		}
	}
}

func TestGenerateFleetShape(t *testing.T) {
	rs, err := GenerateFleet(FleetConfig{Seed: 1, Servers: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2000 {
		t.Fatalf("got %d servers, want 2000", len(rs))
	}
	seen := make(map[string]bool, len(rs))
	years := make(map[int]int)
	for i, r := range rs {
		if seen[r.ID] {
			t.Fatalf("duplicate ID %s", r.ID)
		}
		seen[r.ID] = true
		if _, err := r.Curve(); err != nil {
			t.Fatalf("server %d has invalid curve: %v", i, err)
		}
		if !dataset.IsCompliant(r) {
			t.Fatalf("server %d (%s) is non-compliant: %v", i, r.ID, dataset.Validate(r))
		}
		years[r.HWAvailYear]++
	}
	if rs[0].ID != "fleet-0000000" {
		t.Errorf("first ID %q", rs[0].ID)
	}
	// The fleet keeps the corpus year mix: 2012 holds ~27% of servers.
	if frac := float64(years[2012]) / float64(len(rs)); frac < 0.18 || frac > 0.38 {
		t.Errorf("2012 share %.2f, want ≈ 0.27", frac)
	}
}

// TestFleetIDMatchesSprintf guards the hand-rolled ID formatter against
// fmt's zero padding, including indices wider than the seven-digit pad.
func TestFleetIDMatchesSprintf(t *testing.T) {
	for _, i := range []int{0, 9, 1023, 1024, 9_999_999, 10_000_000, 123_456_789} {
		if got, want := fleetID(i), fmt.Sprintf("fleet-%07d", i); got != want {
			t.Errorf("fleetID(%d) = %q, want %q", i, got, want)
		}
	}
}

// BenchmarkSolveCurve times the curve solver alone over a fixed spread
// of EP targets and peak spots.
func BenchmarkSolveCurve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	spots := []float64{1, 0.9, 0.8, 0.7, 0.6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ep := 0.3 + 0.8*float64(i%97)/97
		curveSink = solveCurve(rng, ep, spots[i%len(spots)])
	}
}

// curveSink keeps BenchmarkSolveCurve's results live.
var curveSink normCurve

// TestGenerateFleetStoreMatchesGenerateFleet pins the columnar
// generator to the result generator: same seed, same servers, same
// bytes — the store's lazy views materialize to the identical fleet.
func TestGenerateFleetStoreMatchesGenerateFleet(t *testing.T) {
	cfg := FleetConfig{Seed: 7, Servers: 2500}
	want, err := GenerateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := GenerateFleetStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != cfg.Servers {
		t.Fatalf("store has %d rows, want %d", cs.Len(), cfg.Servers)
	}
	if !bytes.Equal(fleetCSV(t, cs.Materialize()), fleetCSV(t, want)) {
		t.Error("GenerateFleetStore differs from GenerateFleet")
	}
	if _, err := GenerateFleetStore(FleetConfig{Seed: 1, Servers: 0}); err == nil {
		t.Error("fleet store size 0 accepted")
	}
}

// TestGenerateFleetShardsStreams checks the streaming generator
// delivers every shard exactly once, in order, and that the shard
// concatenation equals the one-shot store.
func TestGenerateFleetShardsStreams(t *testing.T) {
	cfg := FleetConfig{Seed: 7, Servers: 2500}
	want, err := GenerateFleetStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stores []*dataset.ColumnStore
	next := 0
	err = GenerateFleetShards(cfg, func(shard int, cs *dataset.ColumnStore) error {
		if shard != next {
			t.Fatalf("shard %d delivered, want %d", shard, next)
		}
		next++
		stores = append(stores, cs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, cs := range stores {
		total += cs.Len()
	}
	if total != cfg.Servers {
		t.Fatalf("shards deliver %d rows, want %d", total, cfg.Servers)
	}
	got := dataset.ConcatColumns(stores)
	if !bytes.Equal(fleetCSV(t, got.Materialize()), fleetCSV(t, want.Materialize())) {
		t.Error("streamed shards differ from GenerateFleetStore")
	}
	if _, last := stores[0], stores[len(stores)-1]; stores[0].Len() != 1024 || last.Len() != cfg.Servers%1024 {
		t.Errorf("shard sizes %d/%d, want 1024/%d", stores[0].Len(), last.Len(), cfg.Servers%1024)
	}
}

// TestGenerateFleetAllocs bounds fleet generation to two allocations
// per server (its ID and System strings) plus a per-shard constant
// (the two slabs and the shard's RNG): results and load levels come
// from per-shard slabs.
func TestGenerateFleetAllocs(t *testing.T) {
	const servers, shards = 4 * fleetShardSize, 4
	n := testing.AllocsPerRun(3, func() {
		if _, err := GenerateFleet(FleetConfig{Seed: 1, Servers: servers}); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(2*servers + 8*shards + 8); n > limit {
		t.Errorf("GenerateFleet(%d): %v allocations, want ≤ %v", servers, n, limit)
	}
}

// TestGenerateFleetSlabsDoNotAlias checks that servers sharing a shard
// slab stay independent: appending to one server's levels leaves its
// neighbour's intact, and a Clone owns its levels.
func TestGenerateFleetSlabsDoNotAlias(t *testing.T) {
	rs, err := GenerateFleet(FleetConfig{Seed: 3, Servers: 50})
	if err != nil {
		t.Fatal(err)
	}
	want := fleetCSV(t, rs)
	for i := 0; i+1 < len(rs); i++ {
		if cap(rs[i].Levels) != len(rs[i].Levels) {
			t.Fatalf("server %d: levels cap %d, len %d: appends would reach the next server", i, cap(rs[i].Levels), len(rs[i].Levels))
		}
	}
	next := rs[1].Levels[0]
	grown := append(rs[0].Levels, dataset.LoadLevel{TargetLoad: 2, AvgPowerWatts: -1})
	if rs[1].Levels[0] != next || len(grown) != 11 {
		t.Fatal("appending to server 0's levels changed server 1's")
	}
	c := rs[2].Clone()
	c.Levels[0].AvgPowerWatts = -1
	c.Levels = append(c.Levels, dataset.LoadLevel{})
	c.System = "changed"
	if !bytes.Equal(fleetCSV(t, rs), want) {
		t.Error("mutating an appended slice or a Clone changed the fleet")
	}
}
