package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV hardens the CSV reader against arbitrary input: it must
// either return an error or a well-formed result slice — never panic —
// and everything it accepts must survive a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteCSV(&seed, []*Result{fuzzSeedResult()}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("")
	f.Add("id,vendor\nx,y\n")
	f.Add(strings.Repeat(",", 47) + "\n")
	f.Add(seed.String() + "garbage line without enough commas\n")
	f.Fuzz(func(t *testing.T, input string) {
		results, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, r := range results {
			if r == nil {
				t.Fatal("nil result from successful parse")
			}
			if len(r.Levels) != 10 {
				t.Fatalf("parsed result with %d levels", len(r.Levels))
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, results); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back) != len(results) {
			t.Fatalf("round trip lost results: %d vs %d", len(back), len(results))
		}
	})
}

// FuzzReadJSON hardens the JSON reader the same way.
func FuzzReadJSON(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteJSON(&seed, []*Result{fuzzSeedResult()}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("[]")
	f.Add("null")
	f.Add(`[{"id":"x"}]`)
	f.Add("{")
	f.Fuzz(func(t *testing.T, input string) {
		results, err := ReadJSON(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, r := range results {
			if r == nil {
				continue // JSON null elements decode to nil pointers
			}
			// Derived metrics must never panic on decoded data.
			_ = r.EP()
			_ = r.OverallEE()
			_ = r.MemoryPerCore()
			_ = IsCompliant(r)
		}
	})
}

// FuzzReadBinary hardens both binary layouts: arbitrary bytes must
// either fail cleanly or decode to a corpus that re-encodes and
// round-trips in both v1 and v2 — never panic, never allocate
// unboundedly (the per-record/per-section caps are what this fuzz
// exercises).
func FuzzReadBinary(f *testing.F) {
	rs := []*Result{fuzzSeedResult()}
	var v1 bytes.Buffer
	if err := WriteBinaryV1(&v1, rs); err != nil {
		f.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := WriteColumns(&v2, BuildColumns(rs)); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Add([]byte{})
	f.Add([]byte("EPFB"))
	f.Add(append([]byte("EPFB\x01"), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F))       // huge v1 record length
	f.Add(append([]byte("EPFB\x02"), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F))       // huge v2 row count
	f.Add(append([]byte("EPFB\x02\x01\x01\x01"), 0xFF, 0xFF, 0xFF, 0x7F)) // huge v2 section size
	f.Add(v1.Bytes()[:v1.Len()-3])
	f.Add(v2.Bytes()[:v2.Len()-3])
	f.Fuzz(func(t *testing.T, input []byte) {
		// ReadBinary decodes v1 records straight to results while
		// ReadColumnsBytes appends them to columns: both must accept
		// exactly the same inputs and decode the same corpus.
		cs, errCols := ReadColumnsBytes(input)
		results, err := ReadBinary(bytes.NewReader(input))
		if (errCols == nil) != (err == nil) {
			t.Fatalf("ReadColumnsBytes err=%v, ReadBinary err=%v", errCols, err)
		}
		if err != nil {
			return
		}
		for _, r := range results {
			if r == nil {
				t.Fatal("nil result from successful parse")
			}
			_ = r.EP()
			_ = IsCompliant(r)
		}
		var re1, fromCols bytes.Buffer
		if err := WriteBinaryV1(&re1, results); err != nil {
			t.Fatalf("v1 re-encode failed: %v", err)
		}
		if err := WriteBinaryV1(&fromCols, cs.Materialize()); err != nil {
			t.Fatalf("v1 re-encode failed: %v", err)
		}
		if !bytes.Equal(re1.Bytes(), fromCols.Bytes()) {
			t.Fatal("ReadBinary and ReadColumnsBytes decodes differ")
		}
		back, err := ReadBinary(bytes.NewReader(re1.Bytes()))
		if err != nil || len(back) != len(results) {
			t.Fatalf("v1 round trip failed: %v (%d vs %d)", err, len(back), len(results))
		}
		var re2 bytes.Buffer
		if err := WriteBinary(&re2, results); err != nil {
			t.Fatalf("v2 re-encode failed: %v", err)
		}
		cs2, err := ReadColumns(bytes.NewReader(re2.Bytes()))
		if err != nil || cs2.Len() != len(results) {
			n := -1
			if cs2 != nil {
				n = cs2.Len()
			}
			t.Fatalf("v2 round trip failed: %v (%d vs %d)", err, n, len(results))
		}
	})
}

func fuzzSeedResult() *Result {
	r := &Result{
		ID:               "fuzz-seed",
		Vendor:           "V",
		System:           "S",
		FormFactor:       FormRack,
		PublishedYear:    2015,
		PublishedQuarter: 1,
		HWAvailYear:      2015,
		HWAvailQuarter:   1,
		Nodes:            1,
		Chips:            2,
		CoresPerChip:     8,
		CPUModel:         "Intel Xeon E5-2640 v3",
		NominalGHz:       2.6,
		MemoryGB:         32,
		JVM:              "J",
		OS:               "O",
		ActiveIdleWatts:  45,
	}
	r.Levels = make([]LoadLevel, 10)
	for i := range r.Levels {
		u := float64(i+1) / 10
		r.Levels[i] = LoadLevel{TargetLoad: u, ActualLoad: u, OpsPerSec: u * 1e6, AvgPowerWatts: 45 + 255*u}
	}
	return r
}
