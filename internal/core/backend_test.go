package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/seq"
)

// The backend contract, held to a brute scan of the live windows rather than
// to another backend. Four backends × three measure shapes (incremental
// kernel, bounded evaluation only, plain Fn) cover the three session forms
// and both probe layouts of the net's. After every step of a short append /
// retire program: the session's hits at three radii are, segment by segment,
// exactly the windows a scan puts within the radius, and minDist at a cap
// just below, at and above the true minimum is +Inf, the minimum, the
// minimum — all read off one session, minDist first, the way Nearest reads
// it. What a backend cannot do it must refuse with the typed error.
func TestBackendContractMatchesScan(t *testing.T) {
	p := Params{Lambda: 8, Lambda0: 1}
	kernel := dist.LevenshteinMeasure[byte]()
	boundedOnly := kernel
	boundedOnly.Prepare = nil
	plain := boundedOnly
	plain.Bounded = nil
	measures := []struct {
		name string
		m    dist.Measure[byte]
	}{{"kernel", kernel}, {"bounded", boundedOnly}, {"fn", plain}}
	// wantForm is the session form each (backend, measure) must run on, so a
	// change of routing cannot leave a form untested.
	wantForm := func(kind IndexKind, measure string) string {
		switch {
		case kind == IndexRefNet:
			return "*core.netBackend[uint8]"
		case kind == IndexLinearScan && measure == "kernel":
			return "*core.scanBackend[uint8]"
		}
		return "*core.rangeBackend[uint8]"
	}

	for _, kind := range allBackends {
		for _, mc := range measures {
			t.Run(kind.String()+"/"+mc.name, func(t *testing.T) {
				rng := rand.New(rand.NewPCG(27, 2700))
				db, _ := randStrings(rng, 3, 36, 0, 0, false)
				mt, err := NewMatcher(mc.m, Config{Params: p, Index: kind, MVRefs: 3}, slices.Clone(db))
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%T", mt.index); got != wantForm(kind, mc.name) {
					t.Fatalf("backend is %s, want %s", got, wantForm(kind, mc.name))
				}
				live := slices.Clone(db) // the model: nil once retired
				queries := []seq.Sequence[byte]{
					randomBytes(rng, 11),
					mutated(rng, db[1][5:17]),
					db[2][8:20], // holds a window whole: ε₀ = 0
				}
				checkAgainstScan(t, mt, mc.m, p, live, queries, "built")

				type step struct {
					retire int // sequence to retire, or −1 to append
				}
				for si, st := range []step{{-1}, {0}, {-1}, {3}, {-1}} {
					label := fmt.Sprintf("step %d", si)
					if st.retire < 0 {
						x := randomBytes(rng, 20+rng.IntN(20))
						id, added, err := mt.AppendSequence(x)
						if err != nil || id != len(live) || added != len(x)/p.WindowLen() {
							t.Fatalf("%s: append = (%d, %d, %v), want (%d, %d, nil)", label, id, added, err, len(live), len(x)/p.WindowLen())
						}
						live = append(live, x)
					} else {
						removed, err := mt.RetireSequence(st.retire)
						if kind == IndexCoverTree {
							if !errors.Is(err, ErrRetireUnsupported) {
								t.Fatalf("%s: cover tree retire: %v, want ErrRetireUnsupported", label, err)
							}
							continue
						}
						if want := len(live[st.retire]) / p.WindowLen(); err != nil || removed != want {
							t.Fatalf("%s: retire %d = (%d, %v), want (%d, nil)", label, st.retire, removed, err, want)
						}
						live[st.retire] = nil
					}
					checkAgainstScan(t, mt, mc.m, p, live, queries, label)
				}

				var buf bytes.Buffer
				if err := mt.SaveIndex(&buf); kind != IndexRefNet {
					if !errors.Is(err, ErrSaveUnsupported) {
						t.Fatalf("SaveIndex: %v, want ErrSaveUnsupported", err)
					}
					if err := mt.SaveIndex(io.Discard); !errors.Is(err, ErrSaveUnsupported) {
						t.Fatalf("second SaveIndex: %v, want ErrSaveUnsupported", err)
					}
					return
				} else if err != nil {
					t.Fatal(err)
				}
				restored, err := NewMatcherFromSavedIndex(mc.m, Config{Params: p, Index: kind}, slices.Clone(mt.DB()), &buf)
				if err != nil {
					t.Fatal(err)
				}
				if restored.BuildDistanceCalls() != 0 {
					t.Fatalf("restore computed %d distances", restored.BuildDistanceCalls())
				}
				checkAgainstScan(t, restored, mc.m, p, live, queries, "restored")
			})
		}
	}
}

func randomBytes(rng *rand.Rand, n int) seq.Sequence[byte] {
	s := make(seq.Sequence[byte], n)
	for i := range s {
		s[i] = "ACGT"[rng.IntN(4)]
	}
	return s
}

// mutated copies s with one element changed.
func mutated(rng *rand.Rand, s seq.Sequence[byte]) seq.Sequence[byte] {
	out := slices.Clone(s)
	i := rng.IntN(len(out))
	out[i] = "ACGT"[(bytes.IndexByte([]byte("ACGT"), out[i])+1)%4]
	return out
}

// checkAgainstScan opens one session per query on mt's backend and holds its
// reads, and FilterHits, to a scan of live's windows under m.Fn.
func checkAgainstScan(t *testing.T, mt *Matcher[byte], m dist.Measure[byte], p Params, live []seq.Sequence[byte], queries []seq.Sequence[byte], label string) {
	t.Helper()
	var windows []seq.Window[byte]
	for id, x := range live {
		windows = append(windows, seq.Partition(id, x, p.WindowLen())...)
	}
	if mt.NumWindows() != len(windows) {
		t.Fatalf("%s: matcher holds %d windows, the model %d", label, mt.NumWindows(), len(windows))
	}
	for qi, q := range queries {
		sc := mt.getScratch()
		s := mt.openQuery(q, sc)
		least := math.Inf(1)
		for _, seg := range sc.segs {
			for _, w := range windows {
				least = min(least, m.Fn(seg.Data, w.Data))
			}
		}
		for _, c := range []struct{ cap, want float64 }{
			{math.Nextafter(least, math.Inf(-1)), math.Inf(1)},
			{least, least},
			{least + 1.5, least},
		} {
			if got := s.minDist(c.cap); got != c.want {
				t.Fatalf("%s query %d: minDist(%v) = %v, scan says %v", label, qi, c.cap, got, c.want)
			}
		}
		for _, eps := range []float64{least, least + 1, 3, 0} {
			hits := s.hits(eps)
			si := 0 // hits come segment-major: the segment index never falls
			got := make([][]string, len(sc.segs))
			for _, h := range hits {
				for si < len(sc.segs) && (sc.segs[si].Start != h.Segment.Start || len(sc.segs[si].Data) != len(h.Segment.Data)) {
					si++
				}
				if si == len(sc.segs) {
					t.Fatalf("%s query %d eps %v: hits are not segment-major (at %v)", label, qi, eps, h.Segment)
				}
				got[si] = append(got[si], h.Window.String())
			}
			total := 0
			for i, seg := range sc.segs {
				var want []string
				for _, w := range windows {
					if m.Fn(seg.Data, w.Data) <= eps {
						want = append(want, w.String())
					}
				}
				slices.Sort(want)
				slices.Sort(got[i])
				if !slices.Equal(got[i], want) {
					t.Fatalf("%s query %d eps %v segment %v: session hits %v, scan %v", label, qi, eps, seg, got[i], want)
				}
				total += len(want)
			}
			if eps >= least && total == 0 {
				t.Fatalf("%s query %d eps %v: vacuous, the scan finds nothing at or above the minimum", label, qi, eps)
			}
		}
		s.close()
		mt.putScratch(sc)
		// The public read is the same session opened, read once and closed.
		for _, eps := range []float64{least, 3} {
			pub := mt.FilterHits(q, eps)
			sc := mt.getScratch()
			s := mt.openQuery(q, sc)
			sameHits(t, label+" FilterHits", pub, s.hits(eps))
			s.close()
			mt.putScratch(sc)
		}
	}
}
