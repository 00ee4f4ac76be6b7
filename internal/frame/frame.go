// Package frame is the framing the two persisted formats share: the
// reference net's stream (refnet.Save) and the store's snapshot
// (store.Snapshot), which embeds such a stream as one of its blocks.
//
// A framed stream is an 8-byte magic, then fixed-size little-endian
// fields and length-prefixed blocks in whatever layout the format
// defines, then a trailer:
//
//	magic   8 bytes           names the format and its version
//	...     fixed fields      little-endian, sizes known to the layout
//	len     uint64            a block's byte length (≤ MaxBlock)
//	block   len bytes         opaque to the framing (gob, a nested stream)
//	...
//	crc     uint32            IEEE CRC-32 of every preceding byte
//
// A decoder validates every length before allocating and grows a block
// only as the stream delivers it, so a corrupt or hostile length claim
// cannot pre-allocate memory; the trailer covers the whole payload, so a
// damaged stream fails with a *CorruptError carrying the byte offset at
// which the problem surfaced, never a panic or a silently wrong value.
package frame

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// MaxBlock caps a block's claimed length. A length prefix beyond it is
// rejected before any allocation.
const MaxBlock = 1 << 32

// CorruptError reports a malformed stream. Offset is the number of bytes
// consumed from the reader when the problem was detected — the witness
// for "where did it go wrong" in operational debugging.
type CorruptError struct {
	Offset int64
	Reason string
	Err    error // underlying decode/IO error, when one exists
}

func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("corrupt stream at offset %d: %s: %v", e.Offset, e.Reason, e.Err)
	}
	return fmt.Sprintf("corrupt stream at offset %d: %s", e.Offset, e.Reason)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Writer writes one framed stream. Every byte after NewWriter goes
// through the running CRC; the first write error sticks, later writes
// are dropped, and Finish reports it.
type Writer struct {
	out io.Writer // the destination, teed into crc
	crc hash.Hash32
	err error
}

// NewWriter starts a stream on w with the format's magic.
func NewWriter(w io.Writer, magic string) *Writer {
	crc := crc32.NewIEEE()
	fw := &Writer{out: io.MultiWriter(w, crc), crc: crc}
	fw.Bytes([]byte(magic))
	return fw
}

// Bytes writes p as it is.
func (w *Writer) Bytes(p []byte) {
	if w.err == nil {
		_, w.err = w.out.Write(p)
	}
}

// Fixed writes a fixed-size value (see encoding/binary) little-endian.
func (w *Writer) Fixed(data any) {
	if w.err == nil {
		w.err = binary.Write(w.out, binary.LittleEndian, data)
	}
}

// Block writes p behind its uint64 length.
func (w *Writer) Block(p []byte) {
	w.Fixed(uint64(len(p)))
	w.Bytes(p)
}

// GobBlock gob-encodes v and writes the encoding as a block.
func (w *Writer) GobBlock(v any) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		if w.err == nil {
			w.err = fmt.Errorf("encoding %T: %w", v, err)
		}
		return
	}
	w.Block(buf.Bytes())
}

// Finish writes the trailer and returns the first error the stream met.
func (w *Writer) Finish() error {
	w.Fixed(w.crc.Sum32()) // through the CRC too, which is no longer read
	return w.err
}

// Reader reads one framed stream, teeing every byte through the running
// CRC and counting the offset its errors carry.
type Reader struct {
	src io.Reader
	crc hash.Hash32
	off int64
}

// NewReader checks the magic at the head of r; format names the stream
// in the refusal of a wrong one.
func NewReader(r io.Reader, magic, format string) (*Reader, error) {
	fr := &Reader{src: r, crc: crc32.NewIEEE()}
	got := make([]byte, len(magic))
	if err := fr.Fixed(got, "magic"); err != nil {
		return nil, err
	}
	if string(got) != magic {
		return nil, fr.Corrupt(fmt.Sprintf("bad magic %q (not a %s)", got, format), nil)
	}
	return fr, nil
}

// Read reads from the stream through the CRC and the offset count.
func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.src.Read(p)
	r.crc.Write(p[:n])
	r.off += int64(n)
	return n, err
}

// Offset is the number of bytes consumed so far.
func (r *Reader) Offset() int64 { return r.off }

// Corrupt builds the error for a problem found at the current offset.
func (r *Reader) Corrupt(reason string, err error) *CorruptError {
	return &CorruptError{Offset: r.off, Reason: reason, Err: err}
}

// Fixed reads a fixed-size value (see encoding/binary) little-endian; a
// []byte is filled as it is. what names the field in a truncation error.
func (r *Reader) Fixed(data any, what string) error {
	var err error
	if p, ok := data.([]byte); ok {
		_, err = io.ReadFull(r, p)
	} else {
		err = binary.Read(r, binary.LittleEndian, data)
	}
	if err != nil {
		return r.Corrupt("truncated "+what, err)
	}
	return nil
}

// Bytes reads exactly n bytes, growing the result as the stream delivers
// them rather than trusting the claimed length up front — a corrupt
// header announcing a multi-gigabyte block therefore fails at the
// stream's real end instead of pre-allocating the lie.
func (r *Reader) Bytes(n int64, what string) ([]byte, error) {
	var buf bytes.Buffer
	m, err := io.Copy(&buf, io.LimitReader(r, n))
	if err != nil {
		return nil, r.Corrupt("truncated "+what, err)
	}
	if m != n {
		return nil, r.Corrupt(fmt.Sprintf("truncated %s: %d of %d bytes", what, m, n), io.ErrUnexpectedEOF)
	}
	return buf.Bytes(), nil
}

// Block reads a block written by Writer.Block, refusing a length over
// MaxBlock before reading any of it.
func (r *Reader) Block(what string) ([]byte, error) {
	var n uint64
	if err := r.Fixed(&n, what+" length"); err != nil {
		return nil, err
	}
	if n > MaxBlock {
		return nil, r.Corrupt(fmt.Sprintf("%s length %d exceeds cap %d", what, n, uint64(MaxBlock)), nil)
	}
	return r.Bytes(int64(n), what)
}

// GobBlock reads a block written by Writer.GobBlock and decodes it into v.
func (r *Reader) GobBlock(v any, what string) error {
	raw, err := r.Block(what)
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(v); err != nil {
		return r.Corrupt("decoding "+what, err)
	}
	return nil
}

// Verify reads the trailer and checks it against every byte read so far.
// Call it after the last field and before building anything from the
// payload: a mismatch means some field already parsed may be silently
// wrong even though it passed the layout's own checks.
func (r *Reader) Verify() error {
	sum := r.crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(r.src, tail[:]); err != nil {
		return r.Corrupt("truncated checksum", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != sum {
		return r.Corrupt(fmt.Sprintf("checksum mismatch: stream says %08x, payload hashes to %08x", got, sum), nil)
	}
	return nil
}
