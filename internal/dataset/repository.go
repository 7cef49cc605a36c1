package dataset

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/microarch"
)

// Repository is an in-memory collection of results with the filtering
// and grouping operations the analyses use. It stores pointers; callers
// must not mutate results after adding them.
//
// Every repository holds a ColumnStore: metric accessors (EPs,
// OverallEEs, SortByEP, …) and the internal analyses read its
// struct-of-arrays columns, whose derived metric layer the columnar
// kernel builds once on first use. A repository born from results
// ingests them into its store at construction and keeps the result
// pointers as its rows; a repository born from a ColumnStore
// materializes row views on first row access.
//
// Concurrency contract: the repository state (store + rows) is an
// immutable snapshot behind an atomic pointer. Readers never block and
// never observe a half-updated state. Add publishes a brand-new
// snapshot; readers that loaded the old snapshot keep reading the old
// results and old columns, which stay internally consistent forever.
// Concurrent Add calls serialize against each other.
type Repository struct {
	mu    sync.Mutex // serializes Add and other writers
	state atomic.Pointer[repoState]
}

// repoState is one immutable snapshot. store is never nil; rows is nil
// until the row views are materialized (column-born repositories) and
// then index-aligned with the store. The one lazy fill publishes a new
// snapshot via CompareAndSwap, so a snapshot's fields never change
// after publication.
type repoState struct {
	rows  []*Result
	store *ColumnStore
}

func newRepo(rows []*Result, store *ColumnStore) *Repository {
	rp := &Repository{}
	rp.state.Store(&repoState{rows: rows, store: store})
	return rp
}

// NewRepository builds a repository over the given results, ingesting
// their fields into its column store.
func NewRepository(results []*Result) *Repository {
	rs := make([]*Result, len(results))
	copy(rs, results)
	return newRepo(rs, buildRawColumns(rs))
}

// NewColumnRepository builds a repository directly over a column store;
// []*Result views materialize lazily on first row access.
func NewColumnRepository(cs *ColumnStore) *Repository {
	return newRepo(nil, cs)
}

// Add appends results, publishing a new state snapshot. Concurrent
// readers holding the previous snapshot (including its metric columns)
// keep a consistent view of the repository as it was before Add; the
// derived columns rebuild lazily for the new snapshot.
func (rp *Repository) Add(results ...*Result) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	st := rp.withRows()
	rows := make([]*Result, 0, len(st.rows)+len(results))
	rows = append(rows, st.rows...)
	rows = append(rows, results...)
	store := ConcatColumns([]*ColumnStore{st.store, buildRawColumns(results)})
	rp.state.Store(&repoState{rows: rows, store: store})
}

// withRows returns the current snapshot with its row views
// materialized, building and publishing them on first use for
// column-born repositories. The rows are shared: callers must not
// mutate the slice.
func (rp *Repository) withRows() *repoState {
	st := rp.state.Load()
	if st.rows != nil {
		return st
	}
	rows := st.store.Materialize()
	if rows == nil {
		rows = []*Result{}
	}
	next := &repoState{rows: rows, store: st.store}
	if rp.state.CompareAndSwap(st, next) {
		return next
	}
	// Another goroutine won the race: adopt its view so row pointer
	// identity stays stable across calls.
	if cur := rp.state.Load(); cur.rows != nil && cur.store == st.store {
		return cur
	}
	return next
}

// Columns returns the repository's column store with the derived metric
// layer built. The store and every column it exposes are read-only; the
// analyses iterate these columns directly instead of walking []*Result.
func (rp *Repository) Columns() *ColumnStore {
	cs := rp.state.Load().store
	cs.derivedCols()
	return cs
}

// Precompute eagerly builds the derived metric columns in parallel. It
// is never required — the columns build themselves on first use — but
// lets callers pay the cold cost up front, e.g. before serving queries.
func (rp *Repository) Precompute() {
	rp.Columns()
}

func copyColumn(col []float64) []float64 {
	return append([]float64(nil), col...)
}

// Len returns the number of stored results.
func (rp *Repository) Len() int {
	return rp.state.Load().store.Len()
}

// At returns the result at index i (repository order). Column-born
// repositories materialize the row views on first access.
func (rp *Repository) At(i int) *Result {
	return rp.withRows().rows[i]
}

// All returns the stored results (shared pointers, fresh slice).
func (rp *Repository) All() []*Result {
	return append([]*Result(nil), rp.withRows().rows...)
}

// Valid returns a repository containing only compliant results — the
// paper's 517 → 477 step, read from the compliance column.
func (rp *Repository) Valid() *Repository {
	return rp.filter(func(cs *ColumnStore, i int) bool { return cs.ComplianceCol()[i] })
}

// NonCompliant returns the results that fail validation.
func (rp *Repository) NonCompliant() *Repository {
	return rp.filter(func(cs *ColumnStore, i int) bool { return !cs.ComplianceCol()[i] })
}

// filter keeps the rows of the current snapshot satisfying keep,
// preserving repository order.
func (rp *Repository) filter(keep func(cs *ColumnStore, i int) bool) *Repository {
	st := rp.state.Load()
	return st.gather(keepRows(st.store.Len(), func(i int) bool { return keep(st.store, i) }))
}

// gather returns a repository of the rows at idx: the store's columns
// are gathered, and so are the row pointers when they exist, so
// result-born repositories keep pointer identity. Keeping every row
// shares the snapshot instead of copying it.
func (st *repoState) gather(idx []int32) *Repository {
	if len(idx) == st.store.Len() {
		return newRepo(st.rows, st.store)
	}
	var rows []*Result
	if st.rows != nil {
		rows = make([]*Result, len(idx))
		for k, i := range idx {
			rows[k] = st.rows[i]
		}
	}
	return newRepo(rows, st.store.Gather(idx))
}

func keepRows(n int, keep func(int) bool) []int32 {
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if keep(i) {
			out = append(out, int32(i))
		}
	}
	return out
}

// Filter returns a repository of the results for which keep returns true.
func (rp *Repository) Filter(keep func(*Result) bool) *Repository {
	st := rp.withRows()
	return st.gather(keepRows(len(st.rows), func(i int) bool { return keep(st.rows[i]) }))
}

// SingleNode returns only single-node results.
func (rp *Repository) SingleNode() *Repository {
	return rp.filter(func(cs *ColumnStore, i int) bool { return cs.nodes[i] == 1 })
}

// MultiNode returns only results with more than one node.
func (rp *Repository) MultiNode() *Repository {
	return rp.filter(func(cs *ColumnStore, i int) bool { return cs.nodes[i] > 1 })
}

// YearRange returns results whose hardware availability year lies in
// [from, to] inclusive.
func (rp *Repository) YearRange(from, to int) *Repository {
	return rp.filter(func(cs *ColumnStore, i int) bool {
		y := int(cs.hwYears[i])
		return y >= from && y <= to
	})
}

// YearMismatched returns results whose published year differs from their
// hardware availability year — the 74 results (15.5%) the paper calls
// out.
func (rp *Repository) YearMismatched() *Repository {
	return rp.filter(func(cs *ColumnStore, i int) bool { return cs.pubYears[i] != cs.hwYears[i] })
}

// ByHWYear groups results by hardware availability year.
func (rp *Repository) ByHWYear() map[int][]*Result {
	return rp.groupInt(func(r *Result) int { return r.HWAvailYear })
}

// ByPublishedYear groups results by the year SPEC published them.
func (rp *Repository) ByPublishedYear() map[int][]*Result {
	return rp.groupInt(func(r *Result) int { return r.PublishedYear })
}

// ByNodes groups results by total node count.
func (rp *Repository) ByNodes() map[int][]*Result {
	return rp.groupInt(func(r *Result) int { return r.Nodes })
}

// ByChips groups results by total chip count.
func (rp *Repository) ByChips() map[int][]*Result {
	return rp.groupInt(func(r *Result) int { return r.Chips })
}

func (rp *Repository) groupInt(key func(*Result) int) map[int][]*Result {
	out := make(map[int][]*Result)
	for _, r := range rp.withRows().rows {
		k := key(r)
		out[k] = append(out[k], r)
	}
	return out
}

// ByFamily groups results by microarchitecture family (Fig. 6).
func (rp *Repository) ByFamily() map[microarch.Family][]*Result {
	out := make(map[microarch.Family][]*Result)
	for _, r := range rp.withRows().rows {
		f := r.Codename.Family()
		out[f] = append(out[f], r)
	}
	return out
}

// ByCodename groups results by processor codename (Fig. 7).
func (rp *Repository) ByCodename() map[microarch.Codename][]*Result {
	out := make(map[microarch.Codename][]*Result)
	for _, r := range rp.withRows().rows {
		out[r.Codename] = append(out[r.Codename], r)
	}
	return out
}

// HWYears returns the distinct hardware availability years in ascending
// order.
func (rp *Repository) HWYears() []int {
	years := distinctInt32(rp.state.Load().store.hwYears)
	sort.Ints(years)
	return years
}

func distinctInt32(col []int32) []int {
	seen := make(map[int]bool)
	for _, v := range col {
		seen[int(v)] = true
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	return out
}

// EPs returns the energy proportionality of every result, in repository
// order. The values come from the metric columns; only the returned
// slice is freshly allocated.
func (rp *Repository) EPs() []float64 {
	return copyColumn(rp.Columns().EPCol())
}

// OverallEEs returns the SPECpower score of every result, in repository
// order.
func (rp *Repository) OverallEEs() []float64 {
	return copyColumn(rp.Columns().OverallEECol())
}

// PeakEEs returns every result's peak energy efficiency, in repository
// order.
func (rp *Repository) PeakEEs() []float64 {
	return copyColumn(rp.Columns().PeakEECol())
}

// PeakEEUtilizations returns, for every result in repository order, the
// lowest utilization at which its peak efficiency occurs.
func (rp *Repository) PeakEEUtilizations() []float64 {
	return copyColumn(rp.Columns().PeakEEUtilCol())
}

// IdleFractions returns every result's idle-to-peak power ratio, in
// repository order.
func (rp *Repository) IdleFractions() []float64 {
	return copyColumn(rp.Columns().IdleFractionCol())
}

// DynamicRanges returns every result's normalized power swing, in
// repository order.
func (rp *Repository) DynamicRanges() []float64 {
	return copyColumn(rp.Columns().DynamicRangeCol())
}

// PeakOverFullRatios returns every result's peak-over-full-load
// efficiency ratio, in repository order.
func (rp *Repository) PeakOverFullRatios() []float64 {
	return copyColumn(rp.Columns().PeakOverFullCol())
}

// SortByEP returns the results sorted by ascending EP (stable, copy).
// The sort compares precomputed column keys, so it costs O(n log n)
// float comparisons rather than O(n log n) curve rebuilds.
func (rp *Repository) SortByEP() []*Result {
	return rp.sortByKey((*ColumnStore).EPCol)
}

// SortByOverallEE returns the results sorted by ascending SPECpower
// score (stable, copy).
func (rp *Repository) SortByOverallEE() []*Result {
	return rp.sortByKey((*ColumnStore).OverallEECol)
}

// sortByKey stable-sorts a copy of the results by the key column of
// one snapshot, so keys and rows stay index-aligned.
func (rp *Repository) sortByKey(col func(*ColumnStore) []float64) []*Result {
	st := rp.withRows()
	idx := ArgsortStable(col(st.store))
	out := make([]*Result, len(idx))
	for i, j := range idx {
		out[i] = st.rows[j]
	}
	return out
}

// ArgsortStable returns the index permutation that stable-sorts keys
// ascending: out[k] is the row index of the k-th smallest key, equal
// keys staying in row order. NaNs compare equal to everything, matching
// a stable sort under the < comparator.
func ArgsortStable(keys []float64) []int32 {
	for _, k := range keys {
		if k != k { // NaN: the < comparator is no longer a total preorder
			return argsortStableSlow(keys)
		}
	}
	// NaN-free keys: an unstable sort of (key, index) pairs under the
	// lexicographic order produces exactly the stable permutation —
	// ties break on the original index — and runs well ahead of a
	// stable merge over an index slice, because the comparator touches
	// adjacent pair memory instead of random key positions.
	pairs := make([]argsortPair, len(keys))
	for i := range pairs {
		pairs[i] = argsortPair{k: keys[i], i: int32(i)}
	}
	slices.SortFunc(pairs, func(a, b argsortPair) int {
		if a.k < b.k {
			return -1
		}
		if a.k > b.k {
			return 1
		}
		return int(a.i) - int(b.i)
	})
	idx := make([]int32, len(pairs))
	for i := range pairs {
		idx[i] = pairs[i].i
	}
	return idx
}

type argsortPair struct {
	k float64
	i int32
}

// argsortStableSlow is the reference stable argsort, kept for samples
// containing NaN (where the comparator below is not a strict weak
// order and only a stable sort pins the output).
func argsortStableSlow(keys []float64) []int32 {
	idx := make([]int32, len(keys))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortStableFunc(idx, func(a, b int32) int {
		ka, kb := keys[a], keys[b]
		if ka < kb {
			return -1
		}
		if ka > kb {
			return 1
		}
		return 0
	})
	return idx
}

// Merge combines repositories into one, de-duplicating by result ID
// (first occurrence wins). Use it to combine incremental corpus
// snapshots or mix measured and simulated results.
func Merge(repos ...*Repository) *Repository {
	seen := make(map[string]bool)
	var out []*Result
	for _, rp := range repos {
		if rp == nil {
			continue
		}
		for _, r := range rp.withRows().rows {
			if r.ID != "" && seen[r.ID] {
				continue
			}
			seen[r.ID] = true
			out = append(out, r)
		}
	}
	return newRepo(out, buildRawColumns(out))
}

// IDs returns every result ID in repository order.
func (rp *Repository) IDs() []string {
	return append([]string(nil), rp.state.Load().store.ids...)
}

// FindByID returns the result with the given ID, or nil.
func (rp *Repository) FindByID(id string) *Result {
	for i, v := range rp.state.Load().store.ids {
		if v == id {
			return rp.At(i)
		}
	}
	return nil
}
