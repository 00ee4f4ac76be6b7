package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/frame"
	"repro/internal/refnet"
	"repro/internal/seq"
)

func randSeq(rng *rand.Rand, n int) seq.Sequence[byte] {
	s := make(seq.Sequence[byte], n)
	for i := range s {
		s[i] = byte('A' + rng.Intn(4))
	}
	return s
}

func randDB(rng *rand.Rand, n, minLen, maxLen int) []seq.Sequence[byte] {
	db := make([]seq.Sequence[byte], n)
	for i := range db {
		db[i] = randSeq(rng, minLen+rng.Intn(maxLen-minLen+1))
	}
	return db
}

var testCfg = core.Config{Params: core.Params{Lambda: 12, Lambda0: 2}, MVRefs: 3}

func testStore(t *testing.T, kind core.IndexKind, opts ...Option) (*Store[byte], []seq.Sequence[byte], *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	db := randDB(rng, 8, 24, 40)
	cfg := testCfg
	cfg.Index = kind
	s, err := New(dist.LevenshteinMeasure[byte](), cfg, db, opts...)
	if err != nil {
		t.Fatalf("%v: New: %v", kind, err)
	}
	return s, db, rng
}

func sameMatches(t *testing.T, label string, got, want []core.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// A snapshot taken after live mutation restores to a store that answers
// bit-identically, without recomputing distances on the refnet backend.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, kind := range []core.IndexKind{core.IndexRefNet, core.IndexCoverTree, core.IndexMV, core.IndexLinearScan} {
		s, _, rng := testStore(t, kind)
		if _, err := s.Append(randSeq(rng, 30)); err != nil {
			t.Fatalf("%v: append: %v", kind, err)
		}
		if kind != core.IndexCoverTree {
			if _, err := s.Retire(2); err != nil {
				t.Fatalf("%v: retire: %v", kind, err)
			}
		}
		q := randSeq(rng, 26)
		const eps = 3
		want := s.Matcher().FindAll(q, eps)

		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatalf("%v: snapshot: %v", kind, err)
		}
		restored, err := Open(bytes.NewReader(buf.Bytes()), dist.LevenshteinMeasure[byte](), nil)
		if err != nil {
			t.Fatalf("%v: open: %v", kind, err)
		}
		sameMatches(t, fmt.Sprintf("%v restored", kind), restored.Matcher().FindAll(q, eps), want)
		if kind == core.IndexRefNet {
			if calls := restored.Matcher().BuildDistanceCalls(); calls != 0 {
				t.Errorf("refnet restore computed %d build distances, want 0", calls)
			}
		}
		ids, live := restored.Len()
		wantIDs, wantLive := s.Len()
		if ids != wantIDs || live != wantLive {
			t.Fatalf("%v: restored Len = (%d,%d), want (%d,%d)", kind, ids, live, wantIDs, wantLive)
		}
		// The restored store is live: mutate and query it.
		if _, err := restored.Append(randSeq(rng, 28)); err != nil {
			t.Fatalf("%v: append after restore: %v", kind, err)
		}
		if kind != core.IndexCoverTree {
			if _, err := restored.Retire(0); err != nil {
				t.Fatalf("%v: retire after restore: %v", kind, err)
			}
		}
	}
}

// ReadHeader describes a snapshot without restoring it.
func TestReadHeader(t *testing.T) {
	s, db, _ := testStore(t, core.IndexRefNet)
	if _, err := s.Retire(1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h.Measure != "levenshtein" || h.Elem != "byte" || h.Backend != "refnet" {
		t.Fatalf("header = %+v", h)
	}
	if h.Lambda != 12 || h.Lambda0 != 2 || h.WindowLen != 6 {
		t.Fatalf("header params = %+v", h)
	}
	if h.Sequences != len(db) || h.Live != len(db)-1 || len(h.Tombstones) != 1 || h.Tombstones[0] != 1 {
		t.Fatalf("header census = %+v", h)
	}
}

// Open refuses mismatched sessions with the offending field explained.
func TestOpenMismatchRejections(t *testing.T) {
	s, _, _ := testStore(t, core.IndexRefNet)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	var mm *MismatchError
	if _, err := Open(bytes.NewReader(buf.Bytes()), dist.WeightedEditMeasure(), nil); !errors.As(err, &mm) {
		t.Fatalf("wrong measure: %v, want MismatchError", err)
	} else if mm.Field != "measure" {
		t.Fatalf("wrong measure rejected as %q", mm.Field)
	}
	if _, err := Open(bytes.NewReader(buf.Bytes()), dist.ERPMeasure(dist.AbsDiff, 0), nil); !errors.As(err, &mm) {
		t.Fatalf("wrong element type: %v, want MismatchError", err)
	} else if mm.Field != "element type" {
		t.Fatalf("wrong element type rejected as %q", mm.Field)
	}
	sentinel := errors.New("spec says no")
	if _, err := Open(bytes.NewReader(buf.Bytes()), dist.LevenshteinMeasure[byte](), func(Header) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("check rejection: %v, want sentinel", err)
	}
}

// Every truncation and every byte flip is caught: truncations as typed
// CorruptErrors, flips as some refusal (flips ahead of the checksum can
// surface as explained mismatches; none may restore silently).
func TestOpenCorruption(t *testing.T) {
	s, _, _ := testStore(t, core.IndexRefNet)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	lev := dist.LevenshteinMeasure[byte]()

	for cut := 0; cut < len(blob); cut += 13 {
		_, err := Open(bytes.NewReader(blob[:cut]), lev, nil)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncation at %d: %v, want CorruptError", cut, err)
		}
		if ce.Offset < 0 || ce.Offset > int64(cut) {
			t.Fatalf("truncation at %d: offset witness %d out of range", cut, ce.Offset)
		}
	}
	for pos := 0; pos < len(blob); pos += 7 {
		mangled := append([]byte(nil), blob...)
		mangled[pos] ^= 0x40
		if _, err := Open(bytes.NewReader(mangled), lev, nil); err == nil {
			t.Fatalf("flip at %d restored silently", pos)
		}
	}
}

// reseal decodes a snapshot's frame into its header and three blocks,
// lets edit change them, and frames the result again under a fresh CRC:
// a stream that passes the checksum but whose blocks may disagree.
func reseal(t *testing.T, raw []byte, edit func(h *Header, blocks [][]byte)) []byte {
	t.Helper()
	fr, h, err := readHeader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([][]byte, 3) // sequences, TTL table, index
	for i := range blocks {
		if blocks[i], err = fr.Block("block"); err != nil {
			t.Fatal(err)
		}
	}
	edit(&h, blocks)
	var hdr, out bytes.Buffer
	if err := gob.NewEncoder(&hdr).Encode(h); err != nil {
		t.Fatal(err)
	}
	fw := frame.NewWriter(&out, snapMagic)
	fw.Fixed(uint32(hdr.Len()))
	fw.Bytes(hdr.Bytes())
	for _, b := range blocks {
		fw.Block(b)
	}
	if err := fw.Finish(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// A snapshot whose checksum holds but whose blocks disagree with each
// other is corrupt, not an untyped failure: a damaged net stream inside
// the index block, an index block from another store, and a header
// window count the restored index does not have.
func TestOpenResealedDisagreement(t *testing.T) {
	s, db, _ := testStore(t, core.IndexRefNet)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	small, err := New(dist.LevenshteinMeasure[byte](), s.cfg, db[:4])
	if err != nil {
		t.Fatal(err)
	}
	var smallNet bytes.Buffer
	if err := small.Matcher().SaveIndex(&smallNet); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(h *Header, blocks [][]byte)
	}{
		{"net stream byte flipped", func(_ *Header, b [][]byte) { b[2][len(b[2])/2] ^= 0x10 }},
		{"net stream of a 4-sequence store", func(_ *Header, b [][]byte) { b[2] = smallNet.Bytes() }},
		{"header window count", func(h *Header, _ [][]byte) { h.Windows++ }},
	} {
		raw := reseal(t, buf.Bytes(), tc.edit)
		_, err := Open(bytes.NewReader(raw), dist.LevenshteinMeasure[byte](), nil)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: %v, want CorruptError", tc.name, err)
		}
		if ce.Offset < 0 || ce.Offset > int64(len(raw)) {
			t.Fatalf("%s: offset witness %d out of range", tc.name, ce.Offset)
		}
	}
	// The unedited stream reframed the same way still restores.
	if _, err := Open(bytes.NewReader(reseal(t, buf.Bytes(), func(*Header, [][]byte) {})), dist.LevenshteinMeasure[byte](), nil); err != nil {
		t.Fatalf("reframed snapshot: %v", err)
	}
}

// Each persisted format refuses the other's bytes as corrupt: a net
// stream is not a snapshot, and a snapshot is not a net stream.
func TestCrossFormatStreamsAreCorrupt(t *testing.T) {
	s, _, _ := testStore(t, core.IndexRefNet)
	var snap, net bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := s.Matcher().SaveIndex(&net); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := Open(bytes.NewReader(net.Bytes()), dist.LevenshteinMeasure[byte](), nil); !errors.As(err, &ce) {
		t.Fatalf("net stream opened as a snapshot: %v, want CorruptError", err)
	}
	if _, err := refnet.Load(bytes.NewReader(snap.Bytes()), func(a, b seq.Window[byte]) float64 { return 0 }); !errors.As(err, &ce) {
		t.Fatalf("snapshot loaded as a net stream: %v, want CorruptError", err)
	}
}

// TTL'd sequences are retired by Sweep once the injected clock passes
// their deadline, and deadlines survive a snapshot/restore.
func TestTTLSweep(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	s, db, rng := testStore(t, core.IndexRefNet, WithClock(now))

	res, err := s.Append(randSeq(rng, 30), WithTTL(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if retired, err := s.Sweep(); err != nil || len(retired) != 0 {
		t.Fatalf("premature sweep: %v, %v", retired, err)
	}

	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(bytes.NewReader(buf.Bytes()), dist.LevenshteinMeasure[byte](), nil, WithClock(now))
	if err != nil {
		t.Fatal(err)
	}
	if exp := restored.Expiries(); len(exp) != 1 || !exp[res.SeqID].Equal(clock.Add(10*time.Second)) {
		t.Fatalf("restored expiries = %v", exp)
	}

	clock = clock.Add(11 * time.Second)
	for _, st := range []*Store[byte]{s, restored} {
		retired, err := st.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		if len(retired) != 1 || retired[0] != res.SeqID {
			t.Fatalf("sweep retired %v, want [%d]", retired, res.SeqID)
		}
		if ids, live := st.Len(); ids != len(db)+1 || live != len(db) {
			t.Fatalf("after sweep Len = (%d,%d)", ids, live)
		}
		if retired, err := st.Sweep(); err != nil || len(retired) != 0 {
			t.Fatalf("second sweep: %v, %v", retired, err)
		}
	}
}

// SnapshotFile lands atomically and OpenFile restores it.
func TestSnapshotFile(t *testing.T) {
	s, _, rng := testStore(t, core.IndexRefNet)
	path := filepath.Join(t.TempDir(), "idx.snap")
	if err := s.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenFile(path, dist.LevenshteinMeasure[byte](), nil)
	if err != nil {
		t.Fatal(err)
	}
	q := randSeq(rng, 24)
	sameMatches(t, "file restore", restored.Matcher().FindAll(q, 3), s.Matcher().FindAll(q, 3))
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("snapshot left %d files in dir, want 1", len(ents))
	}
}

// Queries, appends, retires and snapshots interleave safely: the view
// guard drains in-flight query claims before each mutation. Run with
// -race; the settled store is held to the oracle at the end.
func TestConcurrentMutationAndQueries(t *testing.T) {
	s, db, rng := testStore(t, core.IndexRefNet)
	pool := s.NewQueryPool(2)
	queries := make([]seq.Sequence[byte], 6)
	for i := range queries {
		queries[i] = randSeq(rng, 24)
	}
	extra := make([]seq.Sequence[byte], 12)
	for i := range extra {
		extra[i] = randSeq(rng, 26+i)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pool.FindAll([]seq.Sequence[byte]{queries[(g+i)%len(queries)]}, 3)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			pool.Submit(context.Background(), queries[i%len(queries)], 3).Await(context.Background())
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, x := range extra {
			if _, err := s.Append(x); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := s.Retire(i); err != nil {
				t.Errorf("retire %d: %v", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			if _, err := Open(bytes.NewReader(buf.Bytes()), dist.LevenshteinMeasure[byte](), nil); err != nil {
				t.Errorf("open mid-flight snapshot: %v", err)
				return
			}
		}
	}()

	// Let the mutators finish, then stop the query loops.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		time.Sleep(200 * time.Millisecond)
		close(stop)
	}()
	<-done
	pool.Close()

	// The settled store answers what the oracle answers over its final
	// database.
	final := append([]seq.Sequence[byte](nil), db...)
	final = append(final, extra...)
	for i := 0; i < 3; i++ {
		final[i] = nil
	}
	mo := &model[byte]{dist.LevenshteinMeasure[byte](), testCfg.Params, final}
	for i, q := range queries {
		if err := sameList(s.Matcher().FindAll(q, 3), mo.query(q).findAll(3)); err != nil {
			t.Fatalf("query %d after settle: %v", i, err)
		}
	}
}

// The reference net a scripted build + append + retire program leaves must be
// node for node and edge for edge the net the same program has always left:
// the store snapshot (sequences, tombstones, nodes in walk order, levels,
// parent→child edges with their stored distances) is pinned by its SHA-256,
// taken at the commit before Matcher moved behind the backend contract and
// refnet node ids began to be reused. A change that alters which windows are
// inserted or deleted, in what order, or what an insertion or a re-homing
// decides, changes these bytes.
func TestScriptedProgramSnapshotBytesPinned(t *testing.T) {
	s, _, rng := testStore(t, core.IndexRefNet)
	for step := 0; step < 24; step++ {
		switch ids, _ := s.Len(); {
		case step%3 == 2:
			// Oldest live sequence out: step 2 retires sequence 0, whose
			// first window is the net's root.
			victim := 0
			for s.Matcher().DB()[victim] == nil {
				victim++
			}
			if _, err := s.Retire(victim); err != nil {
				t.Fatalf("step %d: retire %d: %v", step, victim, err)
			}
		case step%7 == 5:
			if _, err := s.Retire(ids - 1); err != nil { // newest out
				t.Fatalf("step %d: retire %d: %v", step, ids-1, err)
			}
		default:
			if _, err := s.Append(randSeq(rng, 20+rng.Intn(30))); err != nil {
				t.Fatalf("step %d: append: %v", step, err)
			}
		}
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	const wantLen, wantSum = 2782, "4d06a87c30af0a15a198ff2b1ddf253c68d7d019242eee19d971717f6069db3b"
	if sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != wantLen || sum != wantSum {
		t.Fatalf("snapshot is %d bytes, sha256 %s; pinned %d bytes, %s", buf.Len(), sum, wantLen, wantSum)
	}
}
