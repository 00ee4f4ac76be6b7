package refnet

import (
	"container/heap"
	"math"
)

// k-nearest-neighbour search. The paper optimises the reference net for
// range queries and answers its Type III queries by binary-searching a
// radius; a direct best-first k-NN over the same structure is the natural
// extension (cover trees answer NN this way) and is used by the ablation
// benchmarks to position the net against its baselines beyond range
// queries.

// Neighbor is one k-NN result.
type Neighbor[T any] struct {
	Item T
	Dist float64
}

// KNN returns the k items nearest to q, sorted by ascending distance.
// It performs a best-first branch-and-bound traversal: a subtree rooted at
// a node with computed distance d cannot contain anything nearer than
// d − ρ (ρ the node's measured cover radius), so subtrees are expanded in
// order of that optimistic bound and search stops when the bound of the
// best unexpanded subtree is no smaller than the current k-th nearest
// distance. Stored parent-child
// distances prune children without distance computations, exactly as in
// range queries.
//
// When the net's distance has a bounded evaluation (SetBounded), candidate
// pricing runs through it with a radius that shrinks as the result heap
// fills: once k results are held, a child at cover radius ρ only matters if
// δ(q,c) < kth + ρ (below kth it enters the heap; below kth+ρ its subtree
// could still hold an entrant), so the evaluation early-abandons at that
// threshold. An abandoned value exceeds the threshold, which proves the
// candidate neither enters the heap nor expands the frontier — results are
// bit-identical to the unbounded traversal, at a fraction of the cost.
func (t *Net[T]) KNN(q T, k int) []Neighbor[T] {
	if t.root == nil || k <= 0 {
		return nil
	}
	if k > t.size {
		k = t.size
	}
	d := t.dist(q, t.root.item)
	visited := map[*Node[T]]bool{t.root: true}

	best := &maxHeap[T]{}
	offer := func(item T, dist float64) {
		if best.Len() < k {
			heap.Push(best, Neighbor[T]{item, dist})
		} else if dist < (*best)[0].Dist {
			(*best)[0] = Neighbor[T]{item, dist}
			heap.Fix(best, 0)
		}
	}
	kth := func() float64 {
		if best.Len() < k {
			return inf()
		}
		return (*best)[0].Dist
	}

	frontier := &minHeap[T]{}
	offer(t.root.item, d)
	if len(t.root.children) > 0 {
		heap.Push(frontier, frontierEntry[T]{t.root, d, d - t.root.rho})
	}
	for frontier.Len() > 0 {
		e := heap.Pop(frontier).(frontierEntry[T])
		if e.bound >= kth() {
			break // no unexpanded subtree can improve the result
		}
		for _, ce := range e.n.children {
			c := ce.n
			if visited[c] {
				continue
			}
			visited[c] = true
			rho := c.rho
			lo := e.d - ce.d
			if lo < 0 {
				lo = -lo
			}
			if lo-rho >= kth() {
				continue // whole subtree provably too far, zero computations
			}
			var dc float64
			if limit := kth() + rho; t.bounded != nil && !math.IsInf(limit, 1) {
				// Shrinking-radius pricing: a value > kth+ρ — exact or
				// abandoned — proves the candidate cannot enter the heap
				// (needs < kth) nor host an entrant in its subtree (needs
				// < kth+ρ). Values ≤ kth+ρ are exact by the
				// BoundedDistFunc contract, so heap contents never hold an
				// approximation.
				dc = t.bounded(q, c.item, limit)
				if dc > limit {
					continue
				}
			} else {
				dc = t.dist(q, c.item)
			}
			offer(c.item, dc)
			if len(c.children) > 0 && dc-rho < kth() {
				heap.Push(frontier, frontierEntry[T]{c, dc, dc - rho})
			}
		}
	}
	// Drain the max-heap into ascending order.
	out := make([]Neighbor[T], best.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(best).(Neighbor[T])
	}
	return out
}

// NearestNeighbor returns the single closest item to q.
func (t *Net[T]) NearestNeighbor(q T) (Neighbor[T], bool) {
	nn := t.KNN(q, 1)
	if len(nn) == 0 {
		return Neighbor[T]{}, false
	}
	return nn[0], true
}

func inf() float64 { return math.Inf(1) }

type frontierEntry[T any] struct {
	n     *Node[T]
	d     float64
	bound float64
}

// minHeap orders unexpanded subtrees by optimistic bound.
type minHeap[T any] []frontierEntry[T]

func (h minHeap[T]) Len() int           { return len(h) }
func (h minHeap[T]) Less(i, j int) bool { return h[i].bound < h[j].bound }
func (h minHeap[T]) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minHeap[T]) Push(x any)        { *h = append(*h, x.(frontierEntry[T])) }
func (h *minHeap[T]) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// maxHeap keeps the current k best results with the worst on top.
type maxHeap[T any] []Neighbor[T]

func (h maxHeap[T]) Len() int           { return len(h) }
func (h maxHeap[T]) Less(i, j int) bool { return h[i].Dist > h[j].Dist }
func (h maxHeap[T]) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *maxHeap[T]) Push(x any)        { *h = append(*h, x.(Neighbor[T])) }
func (h *maxHeap[T]) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
