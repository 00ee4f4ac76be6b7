package refnet

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/seq"
)

// The build and the repair after deletes, pinned on the two shapes of net the
// workloads index: protein windows under Levenshtein and trajectory windows
// under ERP, 500 windows of length 20 each. The program builds the net,
// deletes a third of it (the root first, then a seeded draw), and inserts the
// deleted windows again. It pins the sha256 of what Save writes after the
// build and at the end, and the distance evaluations of each phase. A changed
// constant means insertion or re-homing no longer builds the same net node for
// node and edge for edge, or prices a different set of pairs; re-pin only on
// purpose. The program must also run both re-home paths: an orphan that keeps
// its level and its children (the fast path), and one relocated to another
// level (the slow path).
func TestBuildAndRehomePinned(t *testing.T) {
	prot := data.Proteins(500, 20, 1).Windows
	traj := data.Trajectories(500, 20, 1).Windows
	t.Run("proteins/levenshtein-fast", func(t *testing.T) {
		runPinProgram(t, prot, dist.LevenshteinFast, pinned{
			build: "2eb3adaf531430aaa243f1204d912fd5f9b91510501a4f9a868b781bab1d12d5",
			end:   "ec082b81f3066096b1192fe1aa581e821190df4752d2b9b96dcb4255937b911e",
			evals: [3]int{73905, 27953, 40591},
		})
	})
	t.Run("traj/erp", func(t *testing.T) {
		runPinProgram(t, traj, dist.ERP(dist.Point2Dist, seq.Point2{}), pinned{
			build: "6adf164fef53a749cf7caa8399a7d9764332d7ba6aef98b7c2007abf493c1de7",
			end:   "2b03e34d8982bd8315d6aed37819a49f25d4bac0dbd4ce0010b906fe9b710be8",
			evals: [3]int{13308, 8159, 6226},
		})
	})
}

// pinned holds a program's constants: the sha256 of Save after the build and
// at the end, and the evaluations of the build, delete and reinsert phases.
type pinned struct {
	build, end string
	evals      [3]int
}

func runPinProgram[E any](t *testing.T, wins []seq.Window[E], fn func(a, b []E) float64, want pinned) {
	evals := 0
	n := New(func(a, b seq.Window[E]) float64 { evals++; return fn(a.Data, b.Data) })
	sum := func() string {
		var buf bytes.Buffer
		if err := n.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	}
	var got pinned
	hs := make([]*Node[seq.Window[E]], len(wins))
	for i, w := range wins {
		hs[i] = n.InsertTracked(w)
	}
	got.evals[0] = evals
	got.build = sum()

	perm := rand.New(rand.NewPCG(31, 7)).Perm(len(hs))
	root := slices.Index(perm, slices.Index(hs, n.root))
	perm[0], perm[root] = perm[root], perm[0]
	victims := perm[:len(hs)/3]
	var fast, slow int
	evals = 0
	for _, v := range victims {
		f, s := deleteWatchingOrphans(t, n, hs[v])
		fast, slow = fast+f, slow+s
	}
	got.evals[1] = evals
	if err := n.Validate(); err != nil {
		t.Fatalf("after the deletes: %v", err)
	}
	evals = 0
	for _, v := range victims {
		hs[v] = n.InsertTracked(wins[v])
	}
	got.evals[2] = evals
	if err := n.Validate(); err != nil {
		t.Fatalf("after the reinserts: %v", err)
	}
	got.end = sum()

	t.Logf("%d deletes re-homed %d orphans in place and relocated %d", len(victims), fast, slow)
	if fast == 0 || slow == 0 {
		t.Errorf("both re-home paths must run: %d orphans kept their level and children, %d changed level", fast, slow)
	}
	if got != want {
		t.Errorf("program gives Save sha256 %s after the build and %s at the end, evaluations %v (build, delete, reinsert);\npinned %s, %s, %v",
			got.build, got.end, got.evals, want.build, want.end, want.evals)
	}
}

// deleteWatchingOrphans deletes h and reports how its orphans were re-homed:
// fast counts those that kept their level with their children still first in
// their lists, slow those whose level changed. An orphan promoted to root is
// neither.
func deleteWatchingOrphans[T any](t *testing.T, n *Net[T], h *Node[T]) (fast, slow int) {
	type before struct {
		o        *Node[T]
		level    int
		children []*Node[T]
	}
	var orphans []before
	for _, e := range h.children {
		if len(e.n.parents) == 1 {
			b := before{o: e.n, level: e.n.level}
			for _, c := range e.n.children {
				b.children = append(b.children, c.n)
			}
			orphans = append(orphans, b)
		}
	}
	if err := n.Delete(h); err != nil {
		t.Fatal(err)
	}
	for _, b := range orphans {
		switch {
		case b.o == n.root:
		case b.o.level != b.level:
			slow++
		case len(b.o.children) >= len(b.children) && slices.EqualFunc(b.children, b.o.children[:len(b.children)],
			func(c *Node[T], e edge[T]) bool { return c == e.n }):
			fast++
		default:
			t.Fatalf("an orphan kept level %d but not its children", b.level)
		}
	}
	return fast, slow
}
