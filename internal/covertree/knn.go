package covertree

import (
	"container/heap"
	"math"
)

// Neighbor is one k-NN result.
type Neighbor[T any] struct {
	Item T
	Dist float64
}

// KNN returns the k items nearest to q, sorted by ascending distance,
// using the same best-first branch-and-bound as the reference net's KNN
// so the two structures can be compared beyond range queries.
func (t *Tree[T]) KNN(q T, k int) []Neighbor[T] {
	if t.root == nil || k <= 0 {
		return nil
	}
	if k > t.size {
		k = t.size
	}
	best := &knnMax[T]{}
	offer := func(item T, d float64) {
		if best.Len() < k {
			heap.Push(best, Neighbor[T]{item, d})
		} else if d < (*best)[0].Dist {
			(*best)[0] = Neighbor[T]{item, d}
			heap.Fix(best, 0)
		}
	}
	kth := func() float64 {
		if best.Len() < k {
			return math.Inf(1)
		}
		return (*best)[0].Dist
	}

	d := t.dist(q, t.root.item)
	offer(t.root.item, d)
	frontier := &knnMin[T]{}
	if len(t.root.children) > 0 {
		heap.Push(frontier, knnEntry[T]{t.root, d, d - t.root.rho})
	}
	for frontier.Len() > 0 {
		e := heap.Pop(frontier).(knnEntry[T])
		if e.bound >= kth() {
			break
		}
		for _, ce := range e.n.children {
			c := ce.n
			rho := c.rho
			lo := e.d - ce.d
			if lo < 0 {
				lo = -lo
			}
			if lo-rho >= kth() {
				continue
			}
			dc := t.dist(q, c.item)
			offer(c.item, dc)
			if len(c.children) > 0 && dc-rho < kth() {
				heap.Push(frontier, knnEntry[T]{c, dc, dc - rho})
			}
		}
	}
	out := make([]Neighbor[T], best.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(best).(Neighbor[T])
	}
	return out
}

type knnEntry[T any] struct {
	n     *node[T]
	d     float64
	bound float64
}

type knnMin[T any] []knnEntry[T]

func (h knnMin[T]) Len() int           { return len(h) }
func (h knnMin[T]) Less(i, j int) bool { return h[i].bound < h[j].bound }
func (h knnMin[T]) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *knnMin[T]) Push(x any)        { *h = append(*h, x.(knnEntry[T])) }
func (h *knnMin[T]) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type knnMax[T any] []Neighbor[T]

func (h knnMax[T]) Len() int           { return len(h) }
func (h knnMax[T]) Less(i, j int) bool { return h[i].Dist > h[j].Dist }
func (h knnMax[T]) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *knnMax[T]) Push(x any)        { *h = append(*h, x.(Neighbor[T])) }
func (h *knnMax[T]) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
