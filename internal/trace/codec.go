package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"mil/internal/bitblock"
)

// The file format is a positional payload inside a CRC-checked frame:
//
//   - The payload is little-endian in a fixed field order, with no field
//     tags and no lengths except the event count. Compatibility is
//     therefore all-or-nothing: any layout change bumps Version, and old
//     traces are rejected rather than misread.
//   - The frame is an 8-byte magic, Version, the recording
//     configuration's front-end hash, the payload length, the payload,
//     and a CRC-32 (IEEE) trailer over everything before it. A torn,
//     bit-rotted, version-skewed or foreign file fails with a one-line
//     error before a single event is decoded.

// magic identifies a trace file.
var magic = [8]byte{'M', 'I', 'L', 'T', 'R', 'A', 'C', 'E'}

// headerLen is magic + version + front-end hash + payload length.
const headerLen = 8 + 4 + 8 + 8

// writer accumulates a payload. The zero value is ready to use.
type writer struct {
	buf []byte
}

// U8 appends one byte.
func (w *writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte.
func (w *writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// I64 appends an int64 (two's complement, little-endian).
func (w *writer) I64(v int64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v)) }

// Int appends an int as an int64.
func (w *writer) Int(v int) { w.I64(int64(v)) }

// Len appends a length. Negative lengths are a programming error.
func (w *writer) Len(n int) {
	if n < 0 {
		panic("trace: negative length")
	}
	w.I64(int64(n))
}

// Bytes64 appends one data line (no length prefix).
func (w *writer) Bytes64(b *[bitblock.BlockBytes]byte) { w.buf = append(w.buf, b[:]...) }

// reader decodes a payload written by writer, in the same order. Errors
// are sticky: after the first failure every read returns zero values and
// err keeps the failure, so a decode sequence needs a single check.
type reader struct {
	buf []byte
	off int
	err error
}

// fail records the first error.
func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("trace: "+format, args...)
	}
}

// take returns the next n bytes, or nil after a failure.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail("payload truncated at offset %d (need %d of %d bytes)", r.off, n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// done reports whether the payload was decoded without error and fully
// consumed.
func (r *reader) done() bool { return r.err == nil && r.off == len(r.buf) }

// U8 reads one byte.
func (r *reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool.
func (r *reader) Bool() bool { return r.U8() != 0 }

// I64 reads an int64.
func (r *reader) I64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// Int reads an int64 into an int.
func (r *reader) Int() int { return int(r.I64()) }

// Len reads a length and bounds it by the remaining payload (each element
// needs at least one byte), so a corrupt length cannot force a huge
// allocation.
func (r *reader) Len() int {
	n := uint64(r.I64())
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("length %d exceeds remaining payload %d", n, len(r.buf)-r.off)
		return 0
	}
	return int(n)
}

// Bytes64 reads one data line.
func (r *reader) Bytes64(out *[bitblock.BlockBytes]byte) {
	if b := r.take(len(out)); b != nil {
		copy(out[:], b)
	}
}

// encodeFrame frames a payload: header (magic, Version, front-end hash,
// payload length), payload, CRC-32 trailer.
func encodeFrame(hash uint64, payload []byte) []byte {
	out := make([]byte, 0, headerLen+len(payload)+4)
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, hash)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// decodeFrame validates a framed file — CRC, magic, Version, front-end
// hash, length — and returns a reader over its payload.
func decodeFrame(data []byte, wantHash uint64) (*reader, error) {
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("trace: file too short (%d bytes) to be a trace", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("trace: CRC mismatch (file %08x, computed %08x): trace is corrupt or truncated", want, got)
	}
	if [8]byte(body[:8]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q: not a trace file", body[:8])
	}
	if v := binary.LittleEndian.Uint32(body[8:12]); v != Version {
		return nil, fmt.Errorf("trace: format version %d, this build reads %d", v, Version)
	}
	if h := binary.LittleEndian.Uint64(body[12:20]); h != wantHash {
		return nil, fmt.Errorf("trace: config hash %016x does not match this run's %016x: the trace must be used under the exact configuration that wrote it", h, wantHash)
	}
	n := binary.LittleEndian.Uint64(body[20:28])
	payload := body[headerLen:]
	if n != uint64(len(payload)) {
		return nil, fmt.Errorf("trace: payload length %d, header says %d", len(payload), n)
	}
	return &reader{buf: payload}, nil
}

// writeFrame atomically writes a framed file: the bytes go to a temporary
// file in the destination directory, which is then renamed over path, so
// a crash mid-write never leaves a half-written trace where a reader
// would find it.
func writeFrame(path string, hash uint64, payload []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(encodeFrame(hash, payload)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
