package placement

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// pinGrid is the fixed utilization grid the profile pin samples: the
// measured levels, points between them, and out-of-range inputs that
// clamp.
var pinGrid = []float64{-0.1, 0, 0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 1.0 / 3, 0.35, 0.4,
	0.45, 0.5, 0.55, 0.6, 0.65, 2.0 / 3, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99, 1, 1.2}

func hashFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

// profileDigest hashes the Float64bits of every profile field, the LUT
// evaluated on pinGrid, and the result's memoized curve metrics.
func profileDigest(t *testing.T, rs []*dataset.Result) string {
	t.Helper()
	h := sha256.New()
	for _, r := range rs {
		c, err := r.Curve()
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProfile(r.ID, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []float64{p.MaxOps, p.EP, p.OptimalUtilization, p.Region.Lo, p.Region.Hi,
			p.OptimalEE(), p.PeakPowerWatts(), p.CappedOps()} {
			hashFloat(h, v)
		}
		for _, u := range pinGrid {
			hashFloat(h, p.PowerAt(u))
			hashFloat(h, p.EEAt(u))
		}
		peak, utils := r.PeakEE()
		for _, v := range []float64{r.EP(), r.OverallEE(), peak, r.PeakEEValue(), r.PeakEEUtilization(),
			r.IdleFraction(), r.DynamicRange(), r.PeakOverFullRatio(), r.LinearDeviation()} {
			hashFloat(h, v)
		}
		for _, u := range utils {
			hashFloat(h, u)
		}
		hashFloat(h, float64(len(utils)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestProfilePinned pins placement profiles and curve metrics bit for
// bit, over a generated fleet and over the seed-1 corpus (whose anchors
// include an exact peak-efficiency tie).
func TestProfilePinned(t *testing.T) {
	fleet, err := synth.GenerateFleet(synth.FleetConfig{Seed: 3, Servers: 3_000})
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := synth.NewRepository(synth.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		rs         []*dataset.Result
	}{
		{"fleet", "392efb224576da0a71f48e8986f42f40e1e4a7c7b813b6dc508742b2f060fb7c", fleet},
		{"corpus", "bf0f4f3a6e669f22f659d796d77aee7287076cb5c034944df876f75e268c6e99", corpus.Valid().All()},
	} {
		if got := profileDigest(t, tc.rs); got != tc.want {
			t.Errorf("%s: profile digest %s, pinned %s", tc.name, got, tc.want)
		}
	}
}

// TestProfilesOrderAndErrors checks the batch constructor: profiles come
// back in input order, equal to NewProfile row by row, and a bad row is
// reported as the error of the lowest failing index instead of a panic.
func TestProfilesOrderAndErrors(t *testing.T) {
	rs, err := synth.GenerateFleet(synth.FleetConfig{Seed: 5, Servers: 300})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Profiles(rs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		want, err := NewProfile(r.ID, r.MustCurve())
		if err != nil {
			t.Fatal(err)
		}
		if got[i].ID != r.ID || math.Float64bits(got[i].MaxOps) != math.Float64bits(want.MaxOps) ||
			math.Float64bits(got[i].EP) != math.Float64bits(want.EP) {
			t.Fatalf("profile %d is %s (EP %v), want %s (EP %v)", i, got[i].ID, got[i].EP, r.ID, want.EP)
		}
	}

	bad := append([]*dataset.Result(nil), rs...)
	for _, i := range []int{250, 7} {
		broken := *rs[i]
		broken.Levels = nil
		bad[i] = &broken
	}
	if _, err := Profiles(bad); err == nil || !strings.Contains(err.Error(), rs[7].ID) {
		t.Errorf("Profiles with bad rows 7 and 250: err = %v, want the error of row 7 (%s)", err, rs[7].ID)
	}
}
