package dataset_test

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// binaryTestCorpus returns a mixed corpus: the full default seed-1 set,
// including the non-compliant results with truncated level lists that
// exercise the codec's variable-length paths.
func binaryTestCorpus(t *testing.T) []*dataset.Result {
	t.Helper()
	rs, err := synth.Generate(synth.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func jsonBytes(t *testing.T, rs []*dataset.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteJSON(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryRoundTripExact pins full fidelity: WriteBinary emits the
// EPFB v2 bytes of the column writer, and a round trip reproduces every
// field of the source bit-for-bit (compared through the JSON form,
// whose shortest-representation floats are exact).
func TestBinaryRoundTripExact(t *testing.T) {
	src := binaryTestCorpus(t)
	var buf bytes.Buffer
	if err := dataset.WriteBinary(&buf, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), v2Bytes(t, src)) {
		t.Error("WriteBinary bytes differ from the EPFB v2 column writer's")
	}
	got, err := dataset.ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(src) {
		t.Fatalf("round trip returned %d results, want %d", len(got), len(src))
	}
	if !bytes.Equal(jsonBytes(t, got), jsonBytes(t, src)) {
		t.Error("binary round trip is not bit-identical to the source")
	}
}

// TestBinaryMatchesCSVAndJSONRoundTrip checks the acceptance contract:
// for standard ten-level results, reading back the binary form equals
// reading back the CSV and JSON forms bit-for-bit.
func TestBinaryMatchesCSVAndJSONRoundTrip(t *testing.T) {
	valid, err := synth.GenerateValid(synth.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	var bin, csv, js bytes.Buffer
	if err := dataset.WriteBinary(&bin, valid); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(&csv, valid); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteJSON(&js, valid); err != nil {
		t.Fatal(err)
	}

	fromBin, err := dataset.ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	fromCSV, err := dataset.ReadCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := dataset.ReadJSON(&js)
	if err != nil {
		t.Fatal(err)
	}

	want := jsonBytes(t, fromBin)
	if !bytes.Equal(want, jsonBytes(t, fromCSV)) {
		t.Error("binary round trip differs from CSV round trip")
	}
	if !bytes.Equal(want, jsonBytes(t, fromJSON)) {
		t.Error("binary round trip differs from JSON round trip")
	}
}

// TestBinaryRejectsCorruption exercises the v1 record walk's bound and
// structure checks (TestColumnsV2RejectsCorruption covers v2).
func TestBinaryRejectsCorruption(t *testing.T) {
	src := binaryTestCorpus(t)[:3]
	var buf bytes.Buffer
	if err := dataset.WriteBinaryV1(&buf, src); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xFF
		if _, err := dataset.ReadBinary(bytes.NewReader(bad)); err == nil {
			t.Error("corrupt magic accepted")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = 0x7F
		if _, err := dataset.ReadBinary(bytes.NewReader(bad)); err == nil {
			t.Error("unknown version accepted")
		}
	})
	t.Run("truncated record", func(t *testing.T) {
		if _, err := dataset.ReadBinary(bytes.NewReader(good[:len(good)-10])); err == nil {
			t.Error("truncated stream accepted")
		}
	})
	t.Run("oversized length prefix", func(t *testing.T) {
		bad := append([]byte(nil), good[:5]...)
		// A length prefix far beyond maxBinaryRecord.
		bad = append(bad, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)
		if _, err := dataset.ReadBinary(bytes.NewReader(bad)); err == nil {
			t.Error("oversized record length accepted")
		}
	})
	t.Run("empty stream", func(t *testing.T) {
		if _, err := dataset.ReadBinary(bytes.NewReader(nil)); err == nil {
			t.Error("empty stream accepted")
		}
	})
}
