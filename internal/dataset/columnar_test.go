package dataset_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// v1Bytes and v2Bytes encode the same corpus in both binary layouts.
func v1Bytes(t *testing.T, rs []*dataset.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteBinaryV1(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func v2Bytes(t *testing.T, rs []*dataset.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteColumns(&buf, dataset.BuildColumns(rs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestColumnarV2RoundTripMatchesV1 pins the acceptance property: the
// sectioned columnar v2 bytes decode — through the ColumnStore and its
// lazy result views — to exactly the same results as the record-major
// v1 bytes, field for field and bit for bit.
func TestColumnarV2RoundTripMatchesV1(t *testing.T) {
	src := binaryTestCorpus(t)
	fromV1, err := dataset.ReadBinary(bytes.NewReader(v1Bytes(t, src)))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := dataset.ReadColumns(bytes.NewReader(v2Bytes(t, src)))
	if err != nil {
		t.Fatal(err)
	}
	fromV2 := cs.Materialize()
	if len(fromV2) != len(fromV1) {
		t.Fatalf("v2 decoded %d results, want %d", len(fromV2), len(fromV1))
	}
	if !bytes.Equal(jsonBytes(t, fromV2), jsonBytes(t, fromV1)) {
		t.Error("v2 round trip differs from v1 round trip")
	}
}

// TestReadBinaryAcceptsV2 checks that the record-oriented entry point
// transparently reads the columnar layout.
func TestReadBinaryAcceptsV2(t *testing.T) {
	src := binaryTestCorpus(t)[:40]
	got, err := dataset.ReadBinary(bytes.NewReader(v2Bytes(t, src)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonBytes(t, got), jsonBytes(t, src)) {
		t.Error("ReadBinary(v2) is not bit-identical to the source")
	}
}

// TestColumnWriterChunked drives the streaming v2 writer shard by
// shard and checks the multi-chunk file reassembles the whole corpus.
func TestColumnWriterChunked(t *testing.T) {
	src := binaryTestCorpus(t)
	var buf bytes.Buffer
	cw, err := dataset.NewColumnWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const shard = 100
	for lo := 0; lo < len(src); lo += shard {
		hi := lo + shard
		if hi > len(src) {
			hi = len(src)
		}
		if err := cw.WriteChunk(dataset.BuildColumns(src[lo:hi])); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	cs, err := dataset.ReadColumns(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != len(src) {
		t.Fatalf("chunked file decoded %d rows, want %d", cs.Len(), len(src))
	}
	if !bytes.Equal(jsonBytes(t, cs.Materialize()), jsonBytes(t, src)) {
		t.Error("chunked v2 stream is not bit-identical to the source")
	}
}

// TestColumnsV2RejectsCorruption exercises the v2 decoder's bound and
// structure checks.
func TestColumnsV2RejectsCorruption(t *testing.T) {
	src := binaryTestCorpus(t)[:5]
	good := v2Bytes(t, src)

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 6, len(good) / 2, len(good) - 1} {
			if _, err := dataset.ReadColumns(bytes.NewReader(good[:cut])); err == nil {
				t.Errorf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("header only is empty corpus", func(t *testing.T) {
		// Magic + version with zero chunks is a valid empty v2 file —
		// exactly what WriteColumns emits for an empty store.
		cs, err := dataset.ReadColumns(bytes.NewReader(good[:5]))
		if err != nil {
			t.Fatal(err)
		}
		if cs.Len() != 0 {
			t.Errorf("header-only file decoded %d rows", cs.Len())
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xFF
		if _, err := dataset.ReadColumns(bytes.NewReader(bad)); err == nil {
			t.Error("corrupt magic accepted")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = 0x7F
		if _, err := dataset.ReadColumns(bytes.NewReader(bad)); err == nil {
			t.Error("unknown version accepted")
		}
	})
	t.Run("oversized row count", func(t *testing.T) {
		bad := append([]byte(nil), good[:5]...)
		bad = append(bad, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F) // rows ≫ maxChunkRows
		if _, err := dataset.ReadColumns(bytes.NewReader(bad)); err == nil {
			t.Error("oversized chunk row count accepted")
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		// Flipping a byte in the middle of the section payloads must
		// either fail decoding or change the decoded data — never panic.
		bad := append([]byte(nil), good...)
		bad[len(bad)/2] ^= 0xFF
		cs, err := dataset.ReadColumns(bytes.NewReader(bad))
		if err == nil && bytes.Equal(jsonBytes(t, cs.Materialize()), jsonBytes(t, src)) {
			t.Error("flipped byte decoded to identical data")
		}
	})
}

// TestColumnRepositoryMatchesResultRepository checks the adapter-view
// contract: a column-born repository answers every accessor exactly
// like the result-born repository it was built from.
func TestColumnRepositoryMatchesResultRepository(t *testing.T) {
	rs := binaryTestCorpus(t)
	base := dataset.NewRepository(rs)
	colRP := dataset.NewColumnRepository(dataset.BuildColumns(rs))

	if base.Len() != colRP.Len() {
		t.Fatalf("Len %d vs %d", colRP.Len(), base.Len())
	}
	eqF := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: len %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
				t.Fatalf("%s[%d]: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
	eqF("EPs", base.EPs(), colRP.EPs())
	eqF("OverallEEs", base.OverallEEs(), colRP.OverallEEs())
	eqF("PeakEEs", base.PeakEEs(), colRP.PeakEEs())
	eqF("IdleFractions", base.IdleFractions(), colRP.IdleFractions())
	eqF("DynamicRanges", base.DynamicRanges(), colRP.DynamicRanges())

	ids := func(rp *dataset.Repository) []string {
		out := make([]string, 0, rp.Len())
		for _, r := range rp.SortByEP() {
			out = append(out, r.ID)
		}
		return out
	}
	a, b := ids(base), ids(colRP)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("SortByEP[%d]: %s vs %s", i, b[i], a[i])
		}
	}

	if base.Valid().Len() != colRP.Valid().Len() {
		t.Errorf("Valid: %d vs %d", colRP.Valid().Len(), base.Valid().Len())
	}
	if base.NonCompliant().Len() != colRP.NonCompliant().Len() {
		t.Errorf("NonCompliant: %d vs %d", colRP.NonCompliant().Len(), base.NonCompliant().Len())
	}
	if base.YearRange(2012, 2016).Len() != colRP.YearRange(2012, 2016).Len() {
		t.Errorf("YearRange: %d vs %d", colRP.YearRange(2012, 2016).Len(), base.YearRange(2012, 2016).Len())
	}
	want := rs[17].ID
	got := colRP.FindByID(want)
	if got == nil || got.ID != want {
		t.Errorf("FindByID(%q) = %v", want, got)
	}
}

// TestAddDuringConcurrentReads is the -race regression for the
// snapshot contract: Add publishes new immutable state while readers
// hammer the metric columns, sorts, and row accessors. Every reader
// must observe an internally consistent snapshot — EPs, All, and Len
// agree with each other — and nothing may race or panic.
func TestAddDuringConcurrentReads(t *testing.T) {
	rs := binaryTestCorpus(t)
	rp := dataset.NewRepository(rs[:100])
	extra := rs[100:200]

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				eps := rp.EPs()
				all := rp.All()
				if len(eps) < 100 || len(all) < 100 {
					t.Errorf("snapshot shrank: %d eps, %d results", len(eps), len(all))
					return
				}
				if len(eps) == len(all) {
					// Same-snapshot consistency spot check.
					if ep := all[0].EP(); ep != eps[0] {
						t.Errorf("EPs[0]=%v disagrees with All()[0] EP=%v", eps[0], ep)
						return
					}
				}
				_ = rp.SortByEP()
				_ = rp.Valid().Len()
			}
		}()
	}
	for _, r := range extra {
		rp.Add(r)
	}
	close(stop)
	wg.Wait()
	if rp.Len() != 200 {
		t.Fatalf("Len = %d after adds, want 200", rp.Len())
	}
	if got := len(rp.EPs()); got != 200 {
		t.Fatalf("EPs length %d after adds, want 200", got)
	}
}

// TestReadPathDispatch checks the shared CLI loader: CSV and JSON by
// extension, EPFB by content sniffing regardless of extension.
func TestReadPathDispatch(t *testing.T) {
	rs := binaryTestCorpus(t)[:30]
	dir := t.TempDir()
	write := func(name string, enc func(*os.File) error) string {
		t.Helper()
		p := filepath.Join(dir, name)
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	paths := map[string]string{
		"csv":  write("corpus.csv", func(f *os.File) error { return dataset.WriteCSV(f, rs) }),
		"json": write("corpus.json", func(f *os.File) error { return dataset.WriteJSON(f, rs) }),
		"v1":   write("corpus_v1.epfb", func(f *os.File) error { return dataset.WriteBinaryV1(f, rs) }),
		// The v2 file deliberately carries a .csv extension: dispatch
		// must sniff the magic, not trust the name.
		"v2": write("corpus_v2.csv", func(f *os.File) error {
			return dataset.WriteColumns(f, dataset.BuildColumns(rs))
		}),
	}
	want := jsonBytes(t, rs)
	for kind, p := range paths {
		rp, err := dataset.ReadPath(p)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !bytes.Equal(jsonBytes(t, rp.All()), want) {
			t.Errorf("%s: loaded corpus differs from source", kind)
		}
	}
	if _, err := dataset.ReadPath(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestCSVWriterStreaming checks batch-by-batch CSV output equals the
// one-shot encoder byte for byte, including the header-only edge.
func TestCSVWriterStreaming(t *testing.T) {
	rs := binaryTestCorpus(t)[:47]
	var want bytes.Buffer
	if err := dataset.WriteCSV(&want, rs); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	cw := dataset.NewCSVWriter(&got)
	for lo := 0; lo < len(rs); lo += 10 {
		hi := lo + 10
		if hi > len(rs) {
			hi = len(rs)
		}
		if err := cw.Append(rs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("streamed CSV differs from WriteCSV")
	}

	var empty, emptyWant bytes.Buffer
	if err := dataset.NewCSVWriter(&empty).Flush(); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(&emptyWant, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(empty.Bytes(), emptyWant.Bytes()) {
		t.Error("empty streamed CSV differs from WriteCSV(nil)")
	}
}

// TestJSONWriterStreaming checks batch-by-batch JSON output equals the
// one-shot encoder byte for byte for non-empty input.
func TestJSONWriterStreaming(t *testing.T) {
	rs := binaryTestCorpus(t)[:23]
	var want bytes.Buffer
	if err := dataset.WriteJSON(&want, rs); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	jw := dataset.NewJSONWriter(&got)
	for lo := 0; lo < len(rs); lo += 7 {
		hi := lo + 7
		if hi > len(rs) {
			hi = len(rs)
		}
		if err := jw.Append(rs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("streamed JSON differs from WriteJSON:\nstream %q...\none-shot %q...",
			truncBytes(got.Bytes()), truncBytes(want.Bytes()))
	}

	var empty bytes.Buffer
	jwe := dataset.NewJSONWriter(&empty)
	if err := jwe.Close(); err != nil {
		t.Fatal(err)
	}
	if empty.String() != "[]\n" {
		t.Errorf("empty stream = %q, want []\\n", empty.String())
	}
}

func truncBytes(b []byte) string {
	if len(b) > 120 {
		b = b[:120]
	}
	return fmt.Sprintf("%s", b)
}
