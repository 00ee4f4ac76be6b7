package refnet

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func TestDeleteLeaf(t *testing.T) {
	n := New(absDist)
	n.Insert(0)
	h := n.InsertTracked(0.1) // lands at level 0 under the root
	n.Insert(5)
	if err := n.Delete(h); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if n.Len() != 2 {
		t.Errorf("Len = %d, want 2", n.Len())
	}
	if err := n.Validate(); err != nil {
		t.Errorf("invalid after delete: %v", err)
	}
	if got := n.Range(0.1, 0); len(got) != 0 {
		t.Errorf("deleted item still found: %v", got)
	}
}

func TestDeleteRootSingleton(t *testing.T) {
	n := New(absDist)
	h := n.InsertTracked(42)
	if err := n.Delete(h); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if n.Len() != 0 {
		t.Errorf("Len = %d, want 0", n.Len())
	}
	if err := n.Validate(); err != nil {
		t.Error(err)
	}
	// The net must remain usable.
	n.Insert(7)
	if got := n.Range(7, 0); len(got) != 1 {
		t.Errorf("reuse after root delete failed: %v", got)
	}
}

func TestDeleteRootWithChildren(t *testing.T) {
	n := New(absDist)
	handles := map[float64]*Node[float64]{}
	values := []float64{50, 10, 90, 48, 52, 11, 89}
	for _, v := range values {
		handles[v] = n.InsertTracked(v)
	}
	if err := n.Delete(handles[values[0]]); err != nil { // first insert is the root
		t.Fatalf("Delete root: %v", err)
	}
	if n.Len() != len(values)-1 {
		t.Errorf("Len = %d, want %d", n.Len(), len(values)-1)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("invalid after root delete: %v", err)
	}
	remaining := values[1:]
	got := sortedRange(n, 50, 1000)
	want := sortedScan(remaining, 50, 1000)
	if !equalFloats(got, want) {
		t.Errorf("after root delete: got %v, want %v", got, want)
	}
}

func TestDeleteDetectsDoubleDelete(t *testing.T) {
	n := New(absDist)
	n.Insert(0)
	h := n.InsertTracked(1)
	if err := n.Delete(h); err != nil {
		t.Fatalf("first delete: %v", err)
	}
	if err := n.Delete(h); err != ErrNotMember {
		t.Errorf("double delete error = %v, want ErrNotMember", err)
	}
	if err := n.Delete(nil); err != ErrNotMember {
		t.Errorf("nil delete error = %v, want ErrNotMember", err)
	}
}

// A handle from another net is not a member: Delete refuses it and leaves
// both nets as they were, instead of unlinking the node from its own net and
// counting the loss against this one.
func TestDeleteRefusesHandleFromAnotherNet(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	a, b := New(absDist), New(absDist)
	var items []float64
	var hs []*Node[float64]
	for i := 0; i < 50; i++ {
		v := rng.Float64() * 100
		items = append(items, v)
		a.Insert(v)
		hs = append(hs, b.InsertTracked(v))
	}
	for _, h := range []*Node[float64]{hs[0], hs[17], hs[49]} { // b's root, then two others
		if err := a.Delete(h); err != ErrNotMember {
			t.Fatalf("Delete of a handle from another net = %v, want ErrNotMember", err)
		}
	}
	for name, n := range map[string]*Net[float64]{"a": a, "b": b} {
		if n.Len() != 50 {
			t.Errorf("net %s: Len = %d, want 50", name, n.Len())
		}
		if err := n.Validate(); err != nil {
			t.Errorf("net %s: %v", name, err)
		}
		if got, want := sortedRange(n, 50, 100), sortedScan(items, 50, 100); !equalFloats(got, want) {
			t.Errorf("net %s holds %v, want %v", name, got, want)
		}
	}
}

func TestRandomInsertDeleteWorkload(t *testing.T) {
	// Interleave inserts and deletes; after every batch the net must stay
	// valid and agree with a shadow slice on range queries.
	rng := rand.New(rand.NewPCG(21, 22))
	n := New(absDist)
	type entry struct {
		v float64
		h *Node[float64]
	}
	var live []entry
	for round := 0; round < 30; round++ {
		for i := 0; i < 40; i++ {
			v := rng.Float64() * 200
			live = append(live, entry{v, n.InsertTracked(v)})
		}
		dels := rng.IntN(30)
		for i := 0; i < dels && len(live) > 0; i++ {
			j := rng.IntN(len(live))
			if err := n.Delete(live[j].h); err != nil {
				t.Fatalf("round %d: delete: %v", round, err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if n.Len() != len(live) {
			t.Fatalf("round %d: Len = %d, want %d", round, n.Len(), len(live))
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		vals := make([]float64, len(live))
		for i, e := range live {
			vals[i] = e.v
		}
		for trial := 0; trial < 5; trial++ {
			q := rng.Float64() * 200
			eps := rng.Float64() * 20
			if !equalFloats(sortedRange(n, q, eps), sortedScan(vals, q, eps)) {
				t.Fatalf("round %d: range mismatch after deletes (q=%v eps=%v)", round, q, eps)
			}
		}
	}
}

func TestDeleteEverything(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	n := New(absDist)
	var hs []*Node[float64]
	for i := 0; i < 200; i++ {
		hs = append(hs, n.InsertTracked(rng.Float64()*100))
	}
	rng.Shuffle(len(hs), func(i, j int) { hs[i], hs[j] = hs[j], hs[i] })
	for i, h := range hs {
		if err := n.Delete(h); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if i%37 == 0 {
			if err := n.Validate(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if n.Len() != 0 {
		t.Errorf("Len = %d after deleting everything", n.Len())
	}
	if err := n.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDeleteWithMaxParentsCap(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 26))
	n := New(absDist, WithMaxParents(2))
	type entry struct {
		v float64
		h *Node[float64]
	}
	var live []entry
	for i := 0; i < 300; i++ {
		v := rng.NormFloat64() * 10
		live = append(live, entry{v, n.InsertTracked(v)})
	}
	for i := 0; i < 150; i++ {
		j := rng.IntN(len(live))
		if err := n.Delete(live[j].h); err != nil {
			t.Fatalf("delete: %v", err)
		}
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	vals := make([]float64, len(live))
	for i, e := range live {
		vals[i] = e.v
	}
	if !equalFloats(sortedRange(n, 0, 15), sortedScan(vals, 0, 15)) {
		t.Error("range mismatch after capped deletes")
	}
}

// Per-query scratch is sized to the node-id space, so a net held at a fixed
// live size through delete+insert churn — a store appending and retiring
// sequences, a TTL sweep — must keep that space at the live size: freed ids
// are handed out again. Every id in use stays distinct, and queries over the
// churned net still answer as a scan does.
func TestDeleteInsertChurnKeepsIDSpaceAtLiveSize(t *testing.T) {
	const liveSize, pairs = 200, 5000
	rng := rand.New(rand.NewPCG(73, 79))
	n := New(absDist)
	var live []*Node[float64]
	for i := 0; i < liveSize; i++ {
		live = append(live, n.InsertTracked(rng.Float64()*100))
	}
	for i := 0; i < pairs; i++ {
		// Oldest out, as a retire does; every 50th pair takes the root.
		victim := 0
		if i%50 == 0 {
			victim = slices.IndexFunc(live, func(h *Node[float64]) bool { return h == n.root })
		}
		if err := n.Delete(live[victim]); err != nil {
			t.Fatalf("pair %d: Delete: %v", i, err)
		}
		live = append(slices.Delete(live, victim, victim+1), n.InsertTracked(rng.Float64()*100))
	}
	if int(n.nextID) > liveSize {
		t.Fatalf("id space is %d after %d delete+insert pairs on %d live items: freed ids are not reused", n.nextID, pairs, liveSize)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, n.nextID)
	items := make([]float64, len(live))
	for i, h := range live {
		if seen[h.id] {
			t.Fatalf("id %d is held by two live nodes", h.id)
		}
		seen[h.id] = true
		items[i] = h.item
	}
	for i := 0; i < 20; i++ {
		q, eps := rng.Float64()*100, rng.Float64()*5
		if got, want := sortedRange(n, q, eps), sortedScan(items, q, eps); !equalFloats(got, want) {
			t.Fatalf("Range(%v, %v) = %v after churn, linear scan %v", q, eps, got, want)
		}
	}
}
