package dataset_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// v1FixturePath holds EPFB v1 bytes written by the record-major v1
// writer: the corpus v1FixtureSource rebuilds.
var v1FixturePath = filepath.Join("testdata", "seed1_v1.epfb")

// v1FixtureSource rebuilds the corpus the v1 fixture was written from:
// the first 64 seed-1 results plus one record cut to three levels, so
// the fixture covers a level list that is not the standard ten.
func v1FixtureSource(t *testing.T) []*dataset.Result {
	t.Helper()
	rs, err := synth.Generate(synth.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := append([]*dataset.Result(nil), rs[:64]...)
	short := *rs[0]
	short.ID = "three-levels"
	short.Levels = append([]dataset.LoadLevel(nil), rs[0].Levels[:3]...)
	return append(src, &short)
}

func v1Fixture(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestV1FixtureMatchesWriter pins the v1 test encoder to the bytes the
// original v1 writer produced, byte for byte.
func TestV1FixtureMatchesWriter(t *testing.T) {
	var buf bytes.Buffer
	if err := dataset.WriteBinaryV1(&buf, v1FixtureSource(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), v1Fixture(t)) {
		t.Errorf("v1 encoder output (%d bytes) differs from %s", buf.Len(), v1FixturePath)
	}
}

// TestV1FixtureDecodes checks that every binary entry point decodes the
// v1 fixture to its source corpus, every float bit-identical and every
// level list the same length.
func TestV1FixtureDecodes(t *testing.T) {
	src := v1FixtureSource(t)
	data := v1Fixture(t)
	decoders := map[string]func() ([]*dataset.Result, error){
		"ReadPath": func() ([]*dataset.Result, error) {
			rp, err := dataset.ReadPath(v1FixturePath)
			if err != nil {
				return nil, err
			}
			return rp.All(), nil
		},
		"ReadColumns": func() ([]*dataset.Result, error) {
			cs, err := dataset.ReadColumns(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			return cs.Materialize(), nil
		},
		"ReadColumnsBytes": func() ([]*dataset.Result, error) {
			cs, err := dataset.ReadColumnsBytes(data)
			if err != nil {
				return nil, err
			}
			return cs.Materialize(), nil
		},
		"ReadBinary": func() ([]*dataset.Result, error) {
			return dataset.ReadBinary(bytes.NewReader(data))
		},
	}
	for name, decode := range decoders {
		got, err := decode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(src) {
			t.Fatalf("%s decoded %d results, want %d", name, len(got), len(src))
		}
		for i := range src {
			if diff := resultBitsDiff(got[i], src[i]); diff != "" {
				t.Errorf("%s: result %d (%s): %s", name, i, src[i].ID, diff)
			}
		}
	}
}

// resultBitsDiff names the first field where a and b differ, comparing
// floats by their IEEE 754 bits; it returns "" when they are identical.
func resultBitsDiff(a, b *dataset.Result) string {
	if a.ID != b.ID || a.Vendor != b.Vendor || a.System != b.System ||
		a.CPUModel != b.CPUModel || a.JVM != b.JVM || a.OS != b.OS {
		return "string field differs"
	}
	if a.FormFactor != b.FormFactor || a.Codename != b.Codename ||
		a.PublishedYear != b.PublishedYear || a.PublishedQuarter != b.PublishedQuarter ||
		a.HWAvailYear != b.HWAvailYear || a.HWAvailQuarter != b.HWAvailQuarter ||
		a.Nodes != b.Nodes || a.Chips != b.Chips || a.CoresPerChip != b.CoresPerChip {
		return "integer field differs"
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.NominalGHz, b.NominalGHz) || !same(a.MemoryGB, b.MemoryGB) ||
		!same(a.ActiveIdleWatts, b.ActiveIdleWatts) {
		return "float field differs"
	}
	if len(a.Levels) != len(b.Levels) {
		return "level count differs"
	}
	for j, lv := range a.Levels {
		w := b.Levels[j]
		if !same(lv.TargetLoad, w.TargetLoad) || !same(lv.ActualLoad, w.ActualLoad) ||
			!same(lv.OpsPerSec, w.OpsPerSec) || !same(lv.AvgPowerWatts, w.AvgPowerWatts) {
			return "level float differs"
		}
	}
	return ""
}
