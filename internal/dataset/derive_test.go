package dataset_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// deriveTestCorpus is the seed-1 corpus plus tampered clones that
// exercise every branch of the columnar metric kernel: invalid curves,
// valid-but-non-compliant rows, and NaN measurements (which sail
// through every ordered comparison exactly like they do in Validate
// and core.NewCurve).
func deriveTestCorpus(t *testing.T) []*dataset.Result {
	t.Helper()
	rs := binaryTestCorpus(t)
	tamper := func(i int, mutate func(*dataset.Result)) {
		c := rs[i].Clone()
		c.ID = c.ID + "-tampered"
		mutate(c)
		rs = append(rs, c)
	}
	tamper(0, func(r *dataset.Result) { r.Levels[3].AvgPowerWatts = 0 })                 // invalid curve
	tamper(1, func(r *dataset.Result) { r.Levels = r.Levels[:5] })                       // grid ends below 1.0
	tamper(2, func(r *dataset.Result) { r.Levels[7].OpsPerSec = r.Levels[6].OpsPerSec }) // non-monotone ops
	tamper(3, func(r *dataset.Result) { r.HWAvailYear = 1999 })                          // out-of-window year
	tamper(4, func(r *dataset.Result) { r.Levels[2].ActualLoad = 0.9 })                  // load deviation
	tamper(5, func(r *dataset.Result) { r.ID = "" })                                     // missing id
	tamper(6, func(r *dataset.Result) { r.ActiveIdleWatts = r.Levels[9].AvgPowerWatts }) // idle ≥ full
	tamper(7, func(r *dataset.Result) { r.Levels[9].OpsPerSec = math.NaN() })            // NaN throughput
	tamper(8, func(r *dataset.Result) { r.Chips = 3; r.Nodes = 2 })                      // chips % nodes ≠ 0
	tamper(9, func(r *dataset.Result) {
		// Zero throughput everywhere: PeakEE's max stays 0, so every
		// level ties for the "peak" spot — the kernel must reproduce
		// that degenerate spot list too.
		for i := range r.Levels {
			r.Levels[i].OpsPerSec = 0
		}
	})
	return rs
}

// curveReference is the independent row-level recompute the columnar
// kernel is pinned against: every row's metrics through its own
// core.Curve, compliance through dataset.IsCompliant, and zero metrics
// on rows whose curve is invalid.
type curveReference struct {
	eps, ees, peakEEs, peakEEUtils []float64
	idleFracs, dynRanges           []float64
	peakOverFull, linearDevs       []float64
	levelEE, spots                 []float64
	spotOff                        []int32
	curveOK, compliant             []bool
	allCurvesOK, allCompliant      bool
}

func newCurveReference(rs []*dataset.Result) *curveReference {
	n := len(rs)
	ref := &curveReference{
		eps:          make([]float64, n),
		ees:          make([]float64, n),
		peakEEs:      make([]float64, n),
		peakEEUtils:  make([]float64, n),
		idleFracs:    make([]float64, n),
		dynRanges:    make([]float64, n),
		peakOverFull: make([]float64, n),
		linearDevs:   make([]float64, n),
		spotOff:      make([]int32, 1, n+1),
		curveOK:      make([]bool, n),
		compliant:    make([]bool, n),
		allCurvesOK:  true,
		allCompliant: true,
	}
	for i, r := range rs {
		for _, lv := range r.Levels {
			ee := 0.0
			if lv.AvgPowerWatts > 0 {
				ee = lv.OpsPerSec / lv.AvgPowerWatts
			}
			ref.levelEE = append(ref.levelEE, ee)
		}
		ref.compliant[i] = dataset.IsCompliant(r)
		ref.allCompliant = ref.allCompliant && ref.compliant[i]
		c, err := r.Curve()
		ref.curveOK[i] = err == nil
		ref.allCurvesOK = ref.allCurvesOK && ref.curveOK[i]
		if err == nil {
			var utils []float64
			ref.eps[i] = c.EP()
			ref.ees[i] = c.OverallEE()
			ref.peakEEs[i], utils = c.PeakEE()
			if len(utils) > 0 {
				ref.peakEEUtils[i] = utils[0]
			}
			ref.idleFracs[i] = c.IdleFraction()
			ref.dynRanges[i] = c.DynamicRange()
			ref.peakOverFull[i] = c.PeakOverFullRatio()
			ref.linearDevs[i] = c.LinearDeviation()
			ref.spots = append(ref.spots, utils...)
		}
		ref.spotOff = append(ref.spotOff, int32(len(ref.spots)))
	}
	return ref
}

// checkAgainstReference fails t unless every derived column of cs
// equals the reference bit for bit.
func checkAgainstReference(t *testing.T, cs *dataset.ColumnStore, ref *curveReference) {
	t.Helper()
	eqF := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: len %d, want %d", name, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d]: %v (%#x) != %v (%#x)", name, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	eqB := func(name string, got, want []bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: len %d, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s[%d]: %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	eqI := func(name string, got, want []int32) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: len %d, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s[%d]: %d, want %d", name, i, got[i], want[i])
			}
		}
	}

	eqB("CurveOK", cs.CurveOKCol(), ref.curveOK)
	eqB("Compliance", cs.ComplianceCol(), ref.compliant)
	eqF("EP", cs.EPCol(), ref.eps)
	eqF("OverallEE", cs.OverallEECol(), ref.ees)
	eqF("PeakEE", cs.PeakEECol(), ref.peakEEs)
	eqF("PeakEEUtil", cs.PeakEEUtilCol(), ref.peakEEUtils)
	eqF("IdleFraction", cs.IdleFractionCol(), ref.idleFracs)
	eqF("DynamicRange", cs.DynamicRangeCol(), ref.dynRanges)
	eqF("PeakOverFull", cs.PeakOverFullCol(), ref.peakOverFull)
	eqF("LinearDev", cs.LinearDevCol(), ref.linearDevs)
	eqF("LevelEE", cs.LevelEECol(), ref.levelEE)
	eqI("PeakSpotOffsets", cs.PeakSpotOffsets(), ref.spotOff)
	eqF("PeakSpots", cs.PeakSpotCol(), ref.spots)
	if cs.AllCurvesOK() != ref.allCurvesOK {
		t.Errorf("AllCurvesOK: %v, want %v", cs.AllCurvesOK(), ref.allCurvesOK)
	}
	if cs.AllCompliant() != ref.allCompliant {
		t.Errorf("AllCompliant: %v, want %v", cs.AllCompliant(), ref.allCompliant)
	}
}

// TestDerivedColumnsBitIdentical pins the columnar metric kernel
// (derive.go) against an independent per-row recompute through
// core.Curve and dataset.IsCompliant, for result-born and column-born
// repositories alike.
func TestDerivedColumnsBitIdentical(t *testing.T) {
	rs := deriveTestCorpus(t)
	ref := newCurveReference(rs)
	colStore := dataset.NewColumnRepository(dataset.BuildColumns(rs)).Columns()
	checkAgainstReference(t, colStore, ref)
	checkAgainstReference(t, dataset.NewRepository(rs).Columns(), ref)

	// The tampered tail must actually exercise the failure branches.
	ok := colStore.CurveOKCol()
	comp := colStore.ComplianceCol()
	n := colStore.Len()
	if ok[n-10] || ok[n-9] {
		t.Error("tampered curves still report valid")
	}
	if comp[n-8] || comp[n-7] || comp[n-6] || comp[n-5] || comp[n-4] || comp[n-2] {
		t.Error("tampered rows still report compliant")
	}
}

// derivedDigest hashes every derived column of cs: the Float64bits of
// each float column, then the peak-spot offsets, curve validity and
// compliance flags.
func derivedDigest(cs *dataset.ColumnStore) string {
	h := sha256.New()
	var buf [8]byte
	for _, col := range [][]float64{
		cs.EPCol(), cs.OverallEECol(), cs.PeakEECol(), cs.PeakEEUtilCol(),
		cs.IdleFractionCol(), cs.DynamicRangeCol(), cs.PeakOverFullCol(),
		cs.LinearDevCol(), cs.LevelEECol(), cs.PeakSpotCol(),
	} {
		for _, v := range col {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, v := range cs.PeakSpotOffsets() {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		h.Write(buf[:4])
	}
	for _, col := range [][]bool{cs.CurveOKCol(), cs.ComplianceCol()} {
		for _, v := range col {
			b := byte(0)
			if v {
				b = 1
			}
			h.Write([]byte{b})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDerivedColumnsPinned pins the sha256 of every derived column for
// the seed-1 corpus and for deriveTestCorpus (seed 1 plus its tampered
// rows), through both a result-born and a column-born repository. Any
// change to how a metric is derived shows up here as a digest change.
func TestDerivedColumnsPinned(t *testing.T) {
	full := deriveTestCorpus(t)
	seed1 := full[:len(binaryTestCorpus(t))]
	for _, tc := range []struct {
		name string
		rs   []*dataset.Result
		want string
	}{
		{"seed1", seed1, "586000ff06a51eec712331b505054a2d6d957f81bb91bd4ca2300becef09d0ba"},
		{"tampered", full, "9eff55d271329b9abe6bf15cd69290dabe02f55315251777aecf82e3ef57a7c0"},
	} {
		byRows := derivedDigest(dataset.NewRepository(tc.rs).Columns())
		byCols := derivedDigest(dataset.NewColumnRepository(dataset.BuildColumns(tc.rs)).Columns())
		if byRows != tc.want || byCols != tc.want {
			t.Errorf("%s: derived digest rows %s, columns %s, want %s", tc.name, byRows, byCols, tc.want)
		}
	}
}

// fuzzLevelBytes encodes levels as the FuzzDeriveMatchesCurve input:
// four little-endian float64s per level (target, actual, ops, power).
func fuzzLevelBytes(levels []dataset.LoadLevel) []byte {
	out := make([]byte, 0, 32*len(levels))
	for _, lv := range levels {
		for _, v := range []float64{lv.TargetLoad, lv.ActualLoad, lv.OpsPerSec, lv.AvgPowerWatts} {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// FuzzDeriveMatchesCurve fuzzes one row — idle power, up to 16 levels
// decoded from raw float bits, and its year/node/chip fields — and
// requires the columnar kernel to match the per-row core.Curve
// reference bit for bit on every derived field.
func FuzzDeriveMatchesCurve(f *testing.F) {
	rs, err := synth.Generate(synth.Config{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	base := rs[0]
	for _, r := range rs[:4] {
		f.Add(r.ActiveIdleWatts, fuzzLevelBytes(r.Levels),
			int32(r.HWAvailYear), int32(r.PublishedYear), int32(r.Nodes), int32(r.Chips))
	}
	zeroOps := append([]dataset.LoadLevel(nil), base.Levels...)
	for i := range zeroOps {
		zeroOps[i].OpsPerSec = 0
	}
	nanOps := append([]dataset.LoadLevel(nil), base.Levels...)
	nanOps[9].OpsPerSec = math.NaN()
	f.Add(base.ActiveIdleWatts, fuzzLevelBytes(zeroOps), int32(2016), int32(2016), int32(1), int32(2))
	f.Add(base.ActiveIdleWatts, fuzzLevelBytes(nanOps), int32(2016), int32(2016), int32(1), int32(2))
	f.Add(base.ActiveIdleWatts, fuzzLevelBytes(base.Levels[:5]), int32(1999), int32(2016), int32(2), int32(3))
	f.Add(0.0, []byte{}, int32(0), int32(0), int32(0), int32(0))

	f.Fuzz(func(t *testing.T, idle float64, levelBytes []byte, hwYear, pubYear, nodes, chips int32) {
		r := base.Clone()
		r.ActiveIdleWatts = idle
		r.HWAvailYear, r.PublishedYear = int(hwYear), int(pubYear)
		r.Nodes, r.Chips = int(nodes), int(chips)
		r.Levels = nil
		for k := 0; k+32 <= len(levelBytes) && len(r.Levels) < 16; k += 32 {
			v := func(o int) float64 {
				return math.Float64frombits(binary.LittleEndian.Uint64(levelBytes[k+o:]))
			}
			r.Levels = append(r.Levels, dataset.LoadLevel{
				TargetLoad: v(0), ActualLoad: v(8), OpsPerSec: v(16), AvgPowerWatts: v(24),
			})
		}
		rows := []*dataset.Result{r}
		checkAgainstReference(t, dataset.BuildColumns(rows), newCurveReference(rows))
	})
}
