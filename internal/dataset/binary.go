package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/microarch"
)

// Binary corpus codec (EPFB): a compact, length-prefixed encoding for
// fleet-scale corpora where CSV/JSON parse time dominates. Every file
// starts with
//
//	magic "EPFB" | uvarint version
//
// followed by a body in one of two layouts. The program writes only the
// sectioned columnar v2 layout (binary_v2.go). The record-major v1
// layout is still read:
//
//	repeated records until the end: uvarint payload length | payload
//
// Each v1 payload encodes the Result fields in struct order: strings as
// uvarint-length-prefixed bytes, integers as zigzag varints, floats as
// 8-byte little-endian IEEE 754 bits (so every value round-trips
// bit-for-bit), and Levels as a uvarint count followed by the four
// floats of each level. Unlike CSV — which flattens to exactly ten
// levels and re-derives the target-load grid — both layouts preserve
// variable-length level lists exactly.
//
// Readers decode from memory: the stream entry points read their input
// into one buffer, then binaryHeader picks the walk of the layout it
// names.

var binaryMagic = [4]byte{'E', 'P', 'F', 'B'}

const (
	binaryVersion = 1
	// maxBinaryRecord bounds one v1 record's payload so a corrupt
	// length prefix fails cleanly instead of attempting a huge
	// allocation.
	maxBinaryRecord = 1 << 20
)

// WriteBinary writes the results in the EPFB v2 columnar encoding.
func WriteBinary(w io.Writer, results []*Result) error {
	return WriteColumns(w, buildRawColumns(results))
}

// ReadBinary parses a binary corpus of either layout into results. v1
// records decode straight to results; v2 decodes columns and
// materializes the adapter views.
func ReadBinary(r io.Reader) ([]*Result, error) {
	data, err := readAllSized(r, remainingLen(r))
	if err != nil {
		return nil, fmt.Errorf("dataset: read binary: %w", err)
	}
	if version, body, err := binaryHeader(data); err == nil && version == binaryVersion {
		var out []*Result
		if err := eachV1Record(body, func(res *Result) { out = append(out, res) }); err != nil {
			return nil, err
		}
		return out, nil
	}
	cs, err := ReadColumnsBytes(data)
	if err != nil {
		return nil, err
	}
	return cs.Materialize(), nil
}

// ReadColumns parses a binary corpus of either layout into a
// ColumnStore. The input is read into memory first and decoded by
// ReadColumnsBytes.
func ReadColumns(r io.Reader) (*ColumnStore, error) {
	data, err := readAllSized(r, remainingLen(r))
	if err != nil {
		return nil, fmt.Errorf("dataset: read binary: %w", err)
	}
	return ReadColumnsBytes(data)
}

// ReadColumnsBytes parses an in-memory binary corpus into a
// ColumnStore. v2 bodies decode whole column sections in place, with
// every column pre-sized from the chunk framing; v1 records are
// appended row by row. The store does not retain data.
func ReadColumnsBytes(data []byte) (*ColumnStore, error) {
	version, body, err := binaryHeader(data)
	if err != nil {
		return nil, err
	}
	switch version {
	case binaryVersion:
		b := NewColumnBuilder(0, 0)
		if err := eachV1Record(body, b.Append); err != nil {
			return nil, err
		}
		return b.Store(), nil
	case binaryVersionColumnar:
		return decodeColumnsV2Bytes(body)
	default:
		return nil, fmt.Errorf("dataset: unsupported binary version %d", version)
	}
}

// binaryHeader checks the magic and returns the layout version and the
// body that follows the header.
func binaryHeader(data []byte) (version uint64, body []byte, err error) {
	hdr := len(binaryMagic)
	if len(data) < hdr {
		return 0, nil, fmt.Errorf("dataset: read binary header: %w", io.ErrUnexpectedEOF)
	}
	if [4]byte(data[:hdr]) != binaryMagic {
		return 0, nil, fmt.Errorf("dataset: bad binary magic %q", data[:hdr])
	}
	version, n := binary.Uvarint(data[hdr:])
	if n <= 0 {
		return 0, nil, fmt.Errorf("dataset: read binary version: %w", io.ErrUnexpectedEOF)
	}
	return version, data[hdr+n:], nil
}

// remainingLen is the number of unread bytes r reports through a Len
// method (bytes.Reader, bytes.Buffer, strings.Reader), or 0.
func remainingLen(r io.Reader) int {
	if l, ok := r.(interface{ Len() int }); ok {
		return l.Len()
	}
	return 0
}

// readAllSized reads r to EOF into a buffer with room for hint bytes
// plus the final empty read, so an accurate hint costs one allocation
// and no growth copy.
func readAllSized(r io.Reader, hint int) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, hint+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// eachV1Record decodes the v1 records of body in order and hands each
// to fn.
func eachV1Record(body []byte, fn func(*Result)) error {
	for len(body) > 0 {
		size, n := binary.Uvarint(body)
		if n <= 0 {
			return fmt.Errorf("dataset: read binary record length: %w", io.ErrUnexpectedEOF)
		}
		body = body[n:]
		if size > maxBinaryRecord {
			return fmt.Errorf("dataset: binary record length %d exceeds limit %d", size, maxBinaryRecord)
		}
		if size > uint64(len(body)) {
			return fmt.Errorf("dataset: read binary record: %w", io.ErrUnexpectedEOF)
		}
		res, err := decodeBinaryResult(body[:size])
		if err != nil {
			return err
		}
		fn(res)
		body = body[size:]
	}
	return nil
}

type binaryDecoder struct {
	b   []byte
	err error
}

func (d *binaryDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("dataset: truncated binary varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *binaryDecoder) varint() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("dataset: truncated binary varint")
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *binaryDecoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.err = fmt.Errorf("dataset: truncated binary string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *binaryDecoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.err = fmt.Errorf("dataset: truncated binary float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func decodeBinaryResult(payload []byte) (*Result, error) {
	d := &binaryDecoder{b: payload}
	var r Result
	r.ID = d.string()
	r.Vendor = d.string()
	r.System = d.string()
	r.FormFactor = FormFactor(d.varint())
	r.PublishedYear = d.varint()
	r.PublishedQuarter = d.varint()
	r.HWAvailYear = d.varint()
	r.HWAvailQuarter = d.varint()
	r.Nodes = d.varint()
	r.Chips = d.varint()
	r.CoresPerChip = d.varint()
	r.CPUModel = d.string()
	r.Codename = microarch.Codename(d.varint())
	r.NominalGHz = d.float()
	r.JVM = d.string()
	r.OS = d.string()
	r.MemoryGB = d.float()
	r.ActiveIdleWatts = d.float()
	nLevels := d.uvarint()
	if d.err == nil && nLevels > uint64(len(d.b))/32 {
		return nil, fmt.Errorf("dataset: binary level count %d exceeds record payload", nLevels)
	}
	if d.err == nil && nLevels > 0 {
		r.Levels = make([]LoadLevel, nLevels)
		for i := range r.Levels {
			r.Levels[i] = LoadLevel{
				TargetLoad:    d.float(),
				ActualLoad:    d.float(),
				OpsPerSec:     d.float(),
				AvgPowerWatts: d.float(),
			}
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("dataset: decode binary record %q: %w", r.ID, d.err)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("dataset: binary record %q has %d trailing bytes", r.ID, len(d.b))
	}
	return &r, nil
}
