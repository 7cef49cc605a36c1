package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/report"
	"repro/internal/synth"
)

// The corpus-report workload writes a 100k-server EPFB v2 corpus in
// set-up; one operation reads it back through dataset.ReadPath and
// renders report.Full without the hardware sweeps. Dataset reading and
// the analysis/report layers dominate; where fleet-sim materializes rows,
// this workload reads columns.
const corpusServers = 100_000

// pinnedReports holds the sha256 of report.Full over the corpus of a
// seed, as rendered when the benchmark was defined; a change to the
// report bytes fails every operation on these seeds. Any seed is also
// checked against a report rendered from the same fleet generated in
// memory, without the file round trip.
var pinnedReports = map[int64]string{
	1:    "05d1298fa262d261a252989cd8ab3193b51ee8b1b4a7c56d9d22e1c63d7c8c2f",
	2:    "211e6b7bf79a373744c9819a2b899464f91fec84bbcff497c3615822bb6a2a4d",
	3:    "30af6c1a6dbb8380b89339e29ac1223363f05ee9ee831e3806dcdd00f8bdd444",
	4:    "1ce2ff2f594ce8ce159931e39efaf14c51a43cb6d6418a14c07bf29544e68e94",
	5:    "f7dc935db1e5155ef88ff0e60ba0cf26cf217e95541bd3a529f063a505d9fd2c",
	6:    "d91ff661e6639177071e099c2b390dc3f8d2beacb465362efa6612b1716556fa",
	7:    "213eac755a3c2e4419a83f6b6f37b7326a167bcf60f6c68b616ff6bdd3fcb3d3",
	8:    "57a2b13ee1d07b7fa0415a8165e9ee28b003a5ccac8713222813d617c7d5fa9f",
	9:    "e3db1137408b2be40e07991cc3ffea41bceecc167bae48e937b9e4b64c6466d0",
	10:   "ba0e80c8dbd6fa74da39f28279f633d5062dabea6f9d3d5cbf64363497db8342",
	11:   "46f39afdc5abf6df35511ee86361d2617bc0ec98bac930f6dbef77b380b61d62",
	12:   "e43910507b24024c66ab64462ffd5e2d0747daf2ce185b957856f216ccf897f1",
	7933: "90a6bc57b428242c4c8067320bdda1b75aac8e76f25cbb0576cc864e6caae3a1",
}

func runCorpusReport(b *bench) (*outcome, error) {
	o := newOutcome()
	path := filepath.Join(b.out, fmt.Sprintf("corpus-seed%d.epfb", b.seed))
	defer os.Remove(path)
	var fileMB float64
	setup := func() (err error) {
		fileMB, err = writeCorpus(path, b.seed)
		return err
	}
	want, err := referenceReport(b.seed)
	if err != nil {
		return nil, err
	}
	b.logf("corpus seed %d: report sha256 %s", b.seed, want)
	if pinned, ok := pinnedReports[b.seed]; ok {
		o.attempted++
		if want != pinned {
			o.fail(b, fmt.Errorf("in-memory report digest %s, pinned %s", want[:12], pinned[:12]))
		}
		want = pinned
	}
	op := func(i int, tr *tracer) (time.Duration, error) {
		opID := int64(i)
		root := tr.begin("op", opID, -1)
		start := time.Now()
		var rp *dataset.Repository
		_, err := tr.call("dataset.read_path", opID, root, func() (err error) {
			rp, err = dataset.ReadPath(path)
			return err
		})
		if err != nil {
			tr.end(root)
			return time.Since(start), err
		}
		var text string
		_, err = tr.call("report.full", opID, root, func() (err error) {
			text, err = report.Full(rp.Valid(), report.Options{Seed: b.seed})
			return err
		})
		d := time.Since(start)
		tr.end(root)
		if err != nil {
			return d, err
		}
		if got := digestOf(text); got != want {
			return d, fmt.Errorf("report digest %s, want %s", got[:12], want[:12])
		}
		return d, nil
	}
	if err := b.runBatch(o, setup, op); err != nil {
		return nil, err
	}
	if b.tr != nil {
		layerStats(o, b.tr.spans)
		if v, ok := o.layers["dataset.read_path.ms"]; ok && v.V > 0 {
			o.layers["dataset.read_path.mb_per_s"] = value{fileMB / (v.V / 1e3), "MB/s", v.N}
		}
		o.kernels["dataset.read_path.share"] = "BENCH_columnar.json BenchmarkColumnarLoadV2_100k: 39.9 ms"
		o.kernels["report.full.share"] = "BENCH_columnar.json BenchmarkColumnarReport100k: 564 ms"
	}
	return o, nil
}

// writeCorpus streams the seed's fleet to path shard by shard and
// returns the file size in MiB.
func writeCorpus(path string, seed int64) (float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	cw, err := dataset.NewColumnWriter(f)
	if err != nil {
		return 0, err
	}
	err = synth.GenerateFleetShards(synth.FleetConfig{Seed: seed, Servers: corpusServers}, func(_ int, cs *dataset.ColumnStore) error {
		return cw.WriteChunk(cs)
	})
	if err != nil {
		return 0, err
	}
	if err := cw.Flush(); err != nil {
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return float64(st.Size()) / (1 << 20), f.Close()
}

// referenceReport returns the digest of the report over the seed's
// fleet generated in memory, without the file round trip.
func referenceReport(seed int64) (string, error) {
	cs, err := synth.GenerateFleetStore(synth.FleetConfig{Seed: seed, Servers: corpusServers})
	if err != nil {
		return "", err
	}
	text, err := report.Full(dataset.NewColumnRepository(cs).Valid(), report.Options{Seed: seed})
	if err != nil {
		return "", err
	}
	return digestOf(text), nil
}

func digestOf(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}
