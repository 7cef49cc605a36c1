package dataset

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
)

// memoResult builds a small valid result for cache tests.
func memoResult(id string, idle float64) *Result {
	levels := make([]LoadLevel, 10)
	for i := range levels {
		u := float64(i+1) / 10
		levels[i] = LoadLevel{
			TargetLoad:    u,
			ActualLoad:    u,
			OpsPerSec:     1e6 * u,
			AvgPowerWatts: idle + (200-idle)*u,
		}
	}
	return &Result{
		ID:              id,
		Vendor:          "V",
		System:          "S",
		FormFactor:      FormRack,
		PublishedYear:   2016,
		HWAvailYear:     2016,
		Nodes:           1,
		Chips:           2,
		CoresPerChip:    8,
		NominalGHz:      2.2,
		MemoryGB:        64,
		ActiveIdleWatts: idle,
		Levels:          levels,
	}
}

// TestMetricsMemoized checks that the metric accessors return the
// values of the result's curve.
func TestMetricsMemoized(t *testing.T) {
	r := memoResult("memo-1", 60)
	c1 := r.MustCurve()
	if r.EP() != c1.EP() {
		t.Fatalf("memoized EP %.6f != curve EP %.6f", r.EP(), c1.EP())
	}
	if r.OverallEE() != c1.OverallEE() {
		t.Fatalf("memoized EE %.6f != curve EE %.6f", r.OverallEE(), c1.OverallEE())
	}
}

// TestMetricsInvalidCurve checks the zero-on-invalid contract.
func TestMetricsInvalidCurve(t *testing.T) {
	r := memoResult("memo-bad", 60)
	r.Levels = r.Levels[:3] // too few levels: curve construction fails
	if _, err := r.Curve(); err == nil {
		t.Fatal("expected curve error for truncated result")
	}
	if r.EP() != 0 || r.OverallEE() != 0 || r.IdleFraction() != 0 {
		t.Fatalf("invalid result must report zero metrics, got EP=%v EE=%v idle=%v",
			r.EP(), r.OverallEE(), r.IdleFraction())
	}
}

// TestConcurrentMetricAccess hammers the metric accessors and the
// repository's derived columns from many goroutines. Run with -race:
// the column publication must be safe even when every goroutine races
// on a cold store.
func TestConcurrentMetricAccess(t *testing.T) {
	results := make([]*Result, 32)
	for i := range results {
		results[i] = memoResult("conc", 40+float64(i))
	}
	rp := NewRepository(results)

	const goroutines = 16
	var wg sync.WaitGroup
	eps := make([][]float64, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for _, r := range results {
				_ = r.MustCurve()
				eps[gi] = append(eps[gi], r.EP())
				_ = r.PeakEEValue()
				_ = r.IdleFraction()
			}
			_ = rp.EPs()
			_ = rp.SortByEP()
		}(gi)
	}
	wg.Wait()
	for gi := 1; gi < goroutines; gi++ {
		for i := range eps[0] {
			if eps[gi][i] != eps[0][i] {
				t.Fatalf("goroutine %d saw EP[%d]=%v, goroutine 0 saw %v",
					gi, i, eps[gi][i], eps[0][i])
			}
		}
	}
}

// TestCloneDoesNotShareCache verifies that a clone computes metrics
// from its own (possibly mutated) fields, and that mutating the clone
// never disturbs the original.
func TestCloneDoesNotShareCache(t *testing.T) {
	orig := memoResult("clone-src", 60)
	epBefore := orig.EP() // warm the original's cache first

	cl := orig.Clone()
	cl.ActiveIdleWatts = 20 // much lower idle → higher EP
	for i := range cl.Levels {
		cl.Levels[i].AvgPowerWatts = 20 + (200-20)*cl.Levels[i].TargetLoad
	}
	if cl.EP() == epBefore {
		t.Fatalf("clone EP %.6f equals original EP — cache shared across Clone", cl.EP())
	}
	if cl.EP() <= epBefore {
		t.Fatalf("lower idle should raise EP: clone %.6f vs original %.6f", cl.EP(), epBefore)
	}
	if orig.EP() != epBefore {
		t.Fatalf("original EP changed after clone mutation: %.6f vs %.6f", orig.EP(), epBefore)
	}
	// The original's curve still reflects its own, unmutated fields.
	if got := orig.MustCurve().IdleFraction(); math.Abs(got-60.0/200.0) > 1e-12 {
		t.Fatalf("original idle fraction drifted: %v", got)
	}
}

// TestRepositoryColumnsInvalidatedByAdd checks Add drops the cached
// columns so later reads see the new result.
func TestRepositoryColumnsInvalidatedByAdd(t *testing.T) {
	rp := NewRepository([]*Result{memoResult("a", 60)})
	if n := len(rp.EPs()); n != 1 {
		t.Fatalf("want 1 EP, got %d", n)
	}
	rp.Add(memoResult("b", 80))
	eps := rp.EPs()
	if len(eps) != 2 {
		t.Fatalf("columns not invalidated by Add: got %d EPs", len(eps))
	}
	if eps[0] == eps[1] {
		t.Fatalf("distinct idle power must give distinct EPs, got %v", eps)
	}
}

// TestCloneConcurrentWithMetrics clones fresh results while another
// goroutine reads their metrics. Run with -race: Clone must not race
// with a concurrent metric computation on its source.
func TestCloneConcurrentWithMetrics(t *testing.T) {
	for i := 0; i < 64; i++ {
		r := memoResult("clone-race", 40+float64(i))
		var wg sync.WaitGroup
		var ep, cloneEP float64
		wg.Add(2)
		go func() { defer wg.Done(); ep = r.EP() }()
		go func() { defer wg.Done(); cloneEP = r.Clone().EP() }()
		wg.Wait()
		if ep != cloneEP {
			t.Fatalf("result %d: clone EP %v != source EP %v", i, cloneEP, ep)
		}
	}
}

// TestFiltersKeepRowIdentity checks how every filter treats row views:
// on a result-born repository each filter returns the very *Result
// pointers All() holds, and on a column-born repository the columnar
// filters leave the row views unmaterialized.
func TestFiltersKeepRowIdentity(t *testing.T) {
	var results []*Result
	for i := 0; i < 12; i++ {
		r := memoResult(string(rune('a'+i)), 30+5*float64(i))
		r.HWAvailYear = 2010 + i%4
		r.PublishedYear = 2012
		r.PublishedQuarter, r.HWAvailQuarter = 1, 1
		if i%3 == 0 {
			r.Nodes, r.Chips = 2, 4
		}
		if i%5 == 0 {
			r.Levels[4].ActualLoad = 0.9 // non-compliant
		}
		results = append(results, r)
	}
	filters := []struct {
		name     string
		apply    func(*Repository) *Repository
		needRows bool
	}{
		{"Valid", (*Repository).Valid, false},
		{"NonCompliant", (*Repository).NonCompliant, false},
		{"YearRange", func(rp *Repository) *Repository { return rp.YearRange(2011, 2012) }, false},
		{"SingleNode", (*Repository).SingleNode, false},
		{"MultiNode", (*Repository).MultiNode, false},
		{"YearMismatched", (*Repository).YearMismatched, false},
		{"Filter", func(rp *Repository) *Repository {
			return rp.Filter(func(r *Result) bool { return r.ActiveIdleWatts > 50 })
		}, true},
	}

	rowBorn := NewRepository(results)
	byID := make(map[string]*Result)
	for _, r := range rowBorn.All() {
		byID[r.ID] = r
	}
	for _, f := range filters {
		sub := f.apply(rowBorn)
		if sub.Len() == 0 || sub.Len() == rowBorn.Len() {
			t.Fatalf("%s: kept %d of %d rows; the corpus must exercise a real selection",
				f.name, sub.Len(), rowBorn.Len())
		}
		ids := sub.IDs()
		for i, r := range sub.All() {
			if byID[r.ID] != r {
				t.Errorf("%s: row %s is a copy, not the pointer All() holds", f.name, r.ID)
			}
			if ids[i] != r.ID {
				t.Errorf("%s: store row %d is %s, row view is %s", f.name, i, ids[i], r.ID)
			}
		}
	}

	for _, f := range filters {
		colBorn := NewColumnRepository(BuildColumns(results))
		sub := f.apply(colBorn)
		if f.needRows {
			continue // Filter's predicate takes row views by definition
		}
		if sub.state.Load().rows != nil || colBorn.state.Load().rows != nil {
			t.Errorf("%s: column-born filter materialized row views", f.name)
		}
	}
}

// TestSortByEPMatchesDirectSort cross-checks the key-column sort
// against an independently computed ordering.
func TestSortByEPMatchesDirectSort(t *testing.T) {
	results := []*Result{
		memoResult("r1", 90),
		memoResult("r2", 30),
		memoResult("r3", 60),
		memoResult("r4", 45),
	}
	rp := NewRepository(results)
	sorted := rp.SortByEP()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].EP() > sorted[i].EP() {
			t.Fatalf("SortByEP out of order at %d: %.4f > %.4f",
				i, sorted[i-1].EP(), sorted[i].EP())
		}
	}
	if rp.All()[0].ID != "r1" {
		t.Fatal("SortByEP must not reorder the repository itself")
	}
	var _ *core.Curve = sorted[0].MustCurve() // sorted results stay usable
}
