package roadnet

import (
	"math"
	"sync"
)

// searchScratch is the reusable per-search state of a (bounded) Dijkstra:
// the dist array, the heap backing slices, and the list of vertices whose
// dist entry was written. Pooling it removes the O(|V|) allocation that
// every DistAttach / DistAttachWithin call used to pay — the refinement
// phase issues one such call per candidate user per anchor, so the
// allocator pressure was the second-largest per-query cost after the
// searches themselves.
//
// Invariant: while a scratch sits in the pool, every entry of its dist
// backing array is +Inf. acquire relies on this to skip the O(|V|) reset;
// release restores it by undoing only the touched entries.
type searchScratch struct {
	dist    []float64
	touched []VertexID
	heap    DistHeap
}

var searchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// acquireScratch returns a scratch whose dist slice has length n with every
// entry +Inf, and an empty heap. Call release when done.
func acquireScratch(n int) *searchScratch {
	sc := searchPool.Get().(*searchScratch)
	if cap(sc.dist) < n {
		sc.dist = make([]float64, n)
		for i := range sc.dist {
			sc.dist[i] = math.Inf(1)
		}
	}
	sc.dist = sc.dist[:n]
	return sc
}

// set records distance d for v, maintaining the touched list.
func (sc *searchScratch) set(v VertexID, d float64) {
	if math.IsInf(sc.dist[v], 1) {
		sc.touched = append(sc.touched, v)
	}
	sc.dist[v] = d
}

// release resets the scratch to its pooled state (all-+Inf dist, empty heap)
// and returns it to the pool. The scratch must not be used afterwards.
func (sc *searchScratch) release() {
	inf := math.Inf(1)
	for _, v := range sc.touched {
		sc.dist[v] = inf
	}
	sc.touched = sc.touched[:0]
	sc.heap.Reset()
	searchPool.Put(sc)
}

// heapPool recycles heap backing slices for the full (one-to-all) searches,
// whose result array is returned to the caller and therefore cannot be
// pooled itself.
var heapPool = sync.Pool{New: func() any { return new(DistHeap) }}

func acquireHeap() *DistHeap { return heapPool.Get().(*DistHeap) }

func releaseHeap(h *DistHeap) {
	h.Reset()
	heapPool.Put(h)
}
