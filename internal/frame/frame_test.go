package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
)

const testMagic = "TESTv1\x00\x00"

type testFixed struct {
	A uint32
	B float64
}

// The small framed stream the table below damages: a magic, a fixed
// field, a capped block and the trailer.
func encodeTest(t *testing.T, f testFixed, block []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := NewWriter(&buf, testMagic)
	fw.Fixed(f)
	fw.Block(block)
	if err := fw.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeTest(data []byte) (testFixed, []byte, error) {
	var f testFixed
	fr, err := NewReader(bytes.NewReader(data), testMagic, "test stream")
	if err != nil {
		return f, nil, err
	}
	if err := fr.Fixed(&f, "fixed field"); err != nil {
		return f, nil, err
	}
	block, err := fr.Block("block")
	if err != nil {
		return f, nil, err
	}
	return f, block, fr.Verify()
}

func TestRoundTrip(t *testing.T) {
	want := testFixed{A: 7, B: 2.5}
	f, block, err := decodeTest(encodeTest(t, want, []byte("payload")))
	if err != nil || f != want || string(block) != "payload" {
		t.Fatalf("decoded %+v %q %v", f, block, err)
	}
}

// Every damaged form of the stream fails with a CorruptError whose offset
// lies within the bytes the reader was given, and no decode allocates
// more than the stream holds, whatever length it claims.
func TestCorruptStreams(t *testing.T) {
	valid := encodeTest(t, testFixed{A: 7, B: 2.5}, []byte("block payload"))
	const lenOff = len(testMagic) + 12 // the block's length field

	withLength := func(n uint64) []byte {
		data := bytes.Clone(valid)
		binary.LittleEndian.PutUint64(data[lenOff:], n)
		return data
	}
	for _, tc := range []struct {
		name    string
		streams func() [][]byte
		reason  string // every Reason holds it, when set
	}{
		{"truncated at every offset", func() (out [][]byte) {
			for cut := range valid {
				out = append(out, valid[:cut])
			}
			return out
		}, ""},
		{"flipped at every offset", func() (out [][]byte) {
			for pos := range valid {
				data := bytes.Clone(valid)
				data[pos] ^= 0x5A
				out = append(out, data)
			}
			return out
		}, ""},
		{"block length over the cap", func() [][]byte { return [][]byte{withLength(MaxBlock + 1), withLength(1 << 62)} }, "exceeds cap"},
		{"block length under the cap, bytes absent", func() [][]byte { return [][]byte{withLength(MaxBlock)} }, "truncated block"},
		{"wrong magic", func() [][]byte { return [][]byte{append([]byte("RNETv2\x00\x00"), valid[len(testMagic):]...)} }, "not a test stream"},
	} {
		for i, data := range tc.streams() {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := decodeTest(data)
			runtime.ReadMemStats(&after)
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("%s #%d: %v, want CorruptError", tc.name, i, err)
			}
			if ce.Offset < 0 || ce.Offset > int64(len(data)) {
				t.Fatalf("%s #%d: offset %d outside [0, %d]", tc.name, i, ce.Offset, len(data))
			}
			if !strings.Contains(ce.Reason, tc.reason) {
				t.Fatalf("%s #%d: reason %q, want it to say %q", tc.name, i, ce.Reason, tc.reason)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("%s #%d: decoding %d bytes allocated %d", tc.name, i, len(data), grew)
			}
		}
	}
}

// A failed write sticks: later writes are dropped and Finish reports it.
func TestWriterErrorSticks(t *testing.T) {
	boom := errors.New("disk full")
	fw := NewWriter(failWriter{boom}, testMagic)
	fw.Fixed(uint32(1))
	fw.Block([]byte("x"))
	if err := fw.Finish(); !errors.Is(err, boom) {
		t.Fatalf("Finish = %v, want %v", err, boom)
	}
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }
