package graph

import (
	"fmt"
	"math"
	"sync"
)

// AvoidSet marks the vertices and arcs of one Frozen graph that
// ShortestPathAvoiding should cross as rarely as it can. It is dense —
// one flag per vertex index and per CSR arc position — so the search
// tests a slice element per relaxed arc, and it remembers what was set
// so Reset costs O(set), not O(graph): callers pool one and refill it
// per search.
type AvoidSet struct {
	vertex []bool
	arc    []bool
	setV   []int32
	setA   []int32
}

// NewAvoidSet returns an empty avoid set sized for f.
func (f *Frozen) NewAvoidSet() *AvoidSet {
	return &AvoidSet{vertex: make([]bool, len(f.ids)), arc: make([]bool, len(f.targets))}
}

// AddVertex marks a dense vertex index (IndexOf).
func (a *AvoidSet) AddVertex(idx int32) {
	if !a.vertex[idx] {
		a.vertex[idx] = true
		a.setV = append(a.setV, idx)
	}
}

// AddArcs marks CSR arc positions — for an undirected edge, both of its
// directions.
func (a *AvoidSet) AddArcs(pos []int32) {
	for _, p := range pos {
		if !a.arc[p] {
			a.arc[p] = true
			a.setA = append(a.setA, p)
		}
	}
}

// Reset clears every mark.
func (a *AvoidSet) Reset() {
	for _, i := range a.setV {
		a.vertex[i] = false
	}
	for _, p := range a.setA {
		a.arc[p] = false
	}
	a.setV, a.setA = a.setV[:0], a.setA[:0]
}

// avoidEps separates a better distance from an equal one. The avoid
// penalty puts distances in the 1e4–1e6 range, where sums taken in a
// different order differ by more than the 1e-12 the plain search uses.
const avoidEps = 1e-9

// avoidScratch is the state of one bidirectional search: side 0 grows
// from the source, side 1 from the destination. dist is +Inf and done
// false for every vertex between searches; a search lists what it wrote
// in touched and restores exactly that, so a search that settles a dozen
// vertices of a thousand pays for a dozen.
type avoidScratch struct {
	dist    [2][]float64
	prev    [2][]int32
	done    [2][]bool
	heap    [2][]frozenItem
	touched []int32
}

var avoidScratchPool = sync.Pool{
	New: func() interface{} { return &avoidScratch{} },
}

func (f *Frozen) getAvoidScratch() *avoidScratch {
	s := avoidScratchPool.Get().(*avoidScratch)
	n := len(f.ids)
	for side := range s.dist {
		if cap(s.dist[side]) < n {
			s.dist[side] = make([]float64, n)
			for i := range s.dist[side] {
				s.dist[side][i] = math.Inf(1)
			}
			s.prev[side] = make([]int32, n)
			s.done[side] = make([]bool, n)
			s.heap[side] = make([]frozenItem, 0, avoidCap.Load())
		}
		// The whole capacity stays clean, so a smaller graph may reslice.
		s.dist[side] = s.dist[side][:n]
		s.prev[side] = s.prev[side][:n]
		s.done[side] = s.done[side][:n]
	}
	if cap(s.touched) == 0 {
		s.touched = make([]int32, 0, avoidCap.Load())
	}
	return s
}

func putAvoidScratch(s *avoidScratch) {
	noteCap(&avoidCap, max(cap(s.heap[0]), cap(s.heap[1]), cap(s.touched)))
	inf := math.Inf(1)
	for _, v := range s.touched {
		s.dist[0][v], s.dist[1][v] = inf, inf
		s.done[0][v], s.done[1][v] = false, false
	}
	s.touched = s.touched[:0]
	s.heap[0], s.heap[1] = s.heap[0][:0], s.heap[1][:0]
	avoidScratchPool.Put(s)
}

// ShortestPathAvoiding appends to buf the path from src to dst that
// crosses the fewest avoided vertices and arcs and, among those, weighs
// least, and returns the extended buffer. Every crossing costs more than
// any simple path weighs, so one search answers both questions: with
// nothing to avoid (nil or empty set) the path weighs what
// ShortestPathIn's does, and a path clear of the avoid set is found
// whenever one exists. src and dst themselves are never charged.
//
// r and m restrict the search as in ShortestPathIn. The search is
// bidirectional — a frontier from each end, advanced in turn,
// stopping once they cannot meet more cheaply — which on a fabric where
// every ToR reaches every OPS settles a handful of vertices where a
// one-ended search pops every OPS before it reaches a machine two
// layers away. Taking turns, rather than advancing the closer frontier,
// keeps that true when one end sits behind an unavoidable crossing: the
// other end would otherwise settle everything cheaper than the penalty
// first. It needs an undirected graph.
//
// It also returns the live mask's digest as the search read it under
// the mask's read lock (0 without a mask): the live state the path is
// exact for, which a caller memoizing the answer keys it by.
//
// Where several equally cheap paths meet the frontiers at different
// vertices, the one whose meeting vertex comes first in ascending-ID
// order counted cyclically from spread wins. Callers that plan many
// paths over one fabric pass a vertex of their own, so that equal-cost
// choices spread over the fabric instead of all taking the lowest ID;
// the same spread always gives the same path.
func ShortestPathAvoiding[V ~int](f *Frozen, buf []V, src, dst VertexID, r *Restriction, m *LiveMask, avoid *AvoidSet, spread VertexID) ([]V, uint64, error) {
	if f.directed {
		return buf, 0, fmt.Errorf("graph: avoiding path: graph is directed")
	}
	si, ok := f.IndexOf(src)
	if !ok {
		return buf, 0, fmt.Errorf("graph: avoiding path: unknown source %d", src)
	}
	di, ok := f.IndexOf(dst)
	if !ok {
		return buf, 0, fmt.Errorf("graph: avoiding path: unknown destination %d", dst)
	}
	if r.bars(si) || r.bars(di) {
		return buf, 0, fmt.Errorf("%w from %d to %d", ErrNoPath, src, dst)
	}
	var maskVertex, maskArc []bool
	var digest uint64
	if m != nil {
		m.mu.RLock()
		defer m.mu.RUnlock()
		maskVertex, maskArc, digest = m.downVertex, m.downArc, m.Digest()
		if maskVertex[si] || maskVertex[di] {
			return buf, digest, fmt.Errorf("%w from %d to %d", ErrNoPath, src, dst)
		}
	}
	if si == di {
		return append(buf, V(src)), digest, nil
	}
	var avoidVertex, avoidArc []bool
	if avoid != nil && len(avoid.setV)+len(avoid.setA) > 0 {
		avoidVertex, avoidArc = avoid.vertex, avoid.arc
	}
	// A vertex's charge is split over the arc that enters it and the arc
	// that leaves it, so an arc costs the same from either end and the
	// two frontiers' distances add up.
	arcCost, halfCost := f.penalty, f.penalty/2
	charged := func(v int32) bool { return avoidVertex[v] && v != si && v != di }
	n := int32(len(f.ids))
	rot := f.at(spread) // 0 when spread is not a vertex
	rank := func(v int32) int32 { return (v - rot + n) % n }

	s := f.getAvoidScratch()
	defer putAvoidScratch(s)
	s.dist[0][si], s.dist[1][di] = 0, 0
	s.prev[0][si], s.prev[1][di] = -1, -1
	s.touched = append(s.touched, si, di)
	heapPush(&s.heap[0], frozenItem{idx: si})
	heapPush(&s.heap[1], frozenItem{idx: di})

	// best is the cheapest src→dst path seen so far: settled side's
	// vertex meetNear, one arc, then meetFar, which the other side had
	// already reached. Either frontier running dry ends the search too:
	// it has then settled everything it can reach, the other end
	// included if there is a path at all.
	best := math.Inf(1)
	var meetNear, meetFar int32
	var meetSide int
	side := 1
	for len(s.heap[0]) > 0 && len(s.heap[1]) > 0 {
		if s.heap[0][0].dist+s.heap[1][0].dist >= best {
			break
		}
		side = 1 - side
		it := heapPop(&s.heap[side])
		u := it.idx
		if s.done[side][u] {
			continue
		}
		s.done[side][u] = true
		dist, other := s.dist[side], s.dist[1-side]
		uCost := 0.0
		if avoidVertex != nil && charged(u) {
			uCost = halfCost
		}
		lo, cnt, idx, more := f.arcsAt(u, r)
		for {
			for k := int32(0); k < cnt; k++ {
				e := lo + k
				if idx != nil {
					e = idx[k]
				}
				v := f.targets[e]
				if maskArc != nil && maskArc[e] {
					continue
				}
				if maskVertex != nil && maskVertex[v] {
					continue
				}
				nd := it.dist + f.weights[e] + uCost
				if avoidVertex != nil {
					if avoidArc[e] {
						nd += arcCost
					}
					if charged(v) {
						nd += halfCost
					}
				}
				if nd < dist[v]-avoidEps {
					if math.IsInf(dist[v], 1) && math.IsInf(other[v], 1) {
						s.touched = append(s.touched, v)
					}
					dist[v] = nd
					s.prev[side][v] = u
					heapPush(&s.heap[side], frozenItem{dist: nd, idx: v})
				}
				if math.IsInf(other[v], 1) {
					continue
				}
				total := nd + other[v]
				if total < best-avoidEps || (total <= best+avoidEps && rank(v) < rank(meetFar)) {
					best = math.Min(best, total)
					meetNear, meetFar, meetSide = u, v, side
				}
			}
			if len(more) == 0 {
				break
			}
			idx, more, cnt = more, nil, int32(len(more))
		}
	}
	if math.IsInf(best, 1) {
		return buf, digest, fmt.Errorf("%w from %d to %d", ErrNoPath, src, dst)
	}

	// The source half runs meet→src along prev[0] and is written
	// backwards; the destination half runs meet→dst along prev[1].
	fromSrc, fromDst := meetNear, meetFar
	if meetSide == 1 {
		fromSrc, fromDst = meetFar, meetNear
	}
	hops := 0
	for at := fromSrc; at >= 0; at = s.prev[0][at] {
		hops++
	}
	start := len(buf)
	for i := 0; i < hops; i++ {
		buf = append(buf, 0)
	}
	at := fromSrc
	for i := start + hops - 1; i >= start; i-- {
		buf[i] = V(f.ids[at])
		at = s.prev[0][at]
	}
	for at := fromDst; at >= 0; at = s.prev[1][at] {
		buf = append(buf, V(f.ids[at]))
	}
	return buf, digest, nil
}
