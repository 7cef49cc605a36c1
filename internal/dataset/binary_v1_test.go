package dataset

import "io"

// WriteBinaryV1 is the record-major EPFB v1 encoder, kept as a test
// fixture. The program writes only v2, but it still reads v1 files, so
// tests need v1 bytes to check the reader against; testdata/
// seed1_v1.epfb pins this encoder to bytes the original v1 writer
// produced.
func WriteBinaryV1(w io.Writer, results []*Result) error {
	b := append([]byte(nil), binaryMagic[:]...)
	b = appendUvarint(b, binaryVersion)
	var rec []byte
	for _, r := range results {
		rec = appendV1Record(rec[:0], r)
		b = appendUvarint(b, uint64(len(rec)))
		b = append(b, rec...)
	}
	_, err := w.Write(b)
	return err
}

func appendV1String(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendV1Record(b []byte, r *Result) []byte {
	b = appendV1String(b, r.ID)
	b = appendV1String(b, r.Vendor)
	b = appendV1String(b, r.System)
	b = appendVarint(b, int64(r.FormFactor))
	b = appendVarint(b, int64(r.PublishedYear))
	b = appendVarint(b, int64(r.PublishedQuarter))
	b = appendVarint(b, int64(r.HWAvailYear))
	b = appendVarint(b, int64(r.HWAvailQuarter))
	b = appendVarint(b, int64(r.Nodes))
	b = appendVarint(b, int64(r.Chips))
	b = appendVarint(b, int64(r.CoresPerChip))
	b = appendV1String(b, r.CPUModel)
	b = appendVarint(b, int64(r.Codename))
	b = appendFloat(b, r.NominalGHz)
	b = appendV1String(b, r.JVM)
	b = appendV1String(b, r.OS)
	b = appendFloat(b, r.MemoryGB)
	b = appendFloat(b, r.ActiveIdleWatts)
	b = appendUvarint(b, uint64(len(r.Levels)))
	for _, lv := range r.Levels {
		b = appendFloat(b, lv.TargetLoad)
		b = appendFloat(b, lv.ActualLoad)
		b = appendFloat(b, lv.OpsPerSec)
		b = appendFloat(b, lv.AvgPowerWatts)
	}
	return b
}
