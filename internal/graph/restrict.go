package graph

import "slices"

// IndexRestrictable prepares an undirected f for restricted searches.
// restrictable marks, by dense index, the vertices a Restriction may bar;
// it is kept and only read. An arc into any other vertex is a core arc —
// no restriction removes it — and f records each vertex's core arcs as
// CSR positions, and every arc's reverse position, from which a
// Restriction collects the arcs into the vertices it admits. The CSR, its
// arc order and the positions LiveMask and AvoidSet use are untouched.
// Call it once, before f is shared.
func (f *Frozen) IndexRestrictable(restrictable []bool) {
	n := len(f.ids)
	f.restrictable = restrictable
	f.coreOff = make([]int32, n+1)
	f.rev = make([]int32, len(f.targets))
	for u := 0; u < n; u++ {
		f.coreOff[u+1] = f.coreOff[u]
		for _, v := range f.targets[f.offsets[u]:f.offsets[u+1]] {
			if !restrictable[v] {
				f.coreOff[u+1]++
			}
		}
	}
	f.coreArc = make([]int32, 0, f.coreOff[n])
	// Taken in CSR order, the arcs into v leave their sources in ascending
	// (source, weight, tag) order: the order of v's own region.
	cursor := slices.Clone(f.offsets[:n])
	for e, v := range f.targets {
		f.rev[e] = cursor[v]
		cursor[v]++
		if !restrictable[v] {
			f.coreArc = append(f.coreArc, int32(e))
		}
	}
}

// Restriction admits some of a Frozen's restrictable vertices
// (IndexRestrictable) to a search and bars the rest. It is an adjacency,
// not a mask: it holds the arcs into the vertices it admits, grouped by
// the vertex they leave, so a restricted search relaxes a vertex's core
// arcs and its group here, never meets an arc into a barred vertex, and
// costs what the restriction holds, not what it bars.
//
// Fill it with Reset, Admit, Seal — each O(what it holds), so callers pool
// one; once sealed it is only read. A nil *Restriction restricts nothing.
type Restriction struct {
	f        *Frozen
	admitted []bool // by dense index
	members  []int32
	// arcs[off[u]:off[u]+cnt[u]] are the CSR positions of u's arcs into
	// admitted vertices; cnt is zero for every vertex not in sources.
	off, cnt []int32
	sources  []int32
	arcs     []int32
}

// NewRestriction returns a restriction over f that bars every restrictable vertex.
func (f *Frozen) NewRestriction() *Restriction {
	n := len(f.ids)
	return &Restriction{f: f, admitted: make([]bool, n), off: make([]int32, n), cnt: make([]int32, n)}
}

// Reset bars every restrictable vertex again.
func (r *Restriction) Reset() {
	for _, v := range r.members {
		r.admitted[v] = false
	}
	for _, u := range r.sources {
		r.cnt[u] = 0
	}
	r.members, r.sources = r.members[:0], r.sources[:0]
}

// Admit adds the vertex with dense index v; one not restrictable is ignored.
func (r *Restriction) Admit(v int32) {
	if r.f.restrictable[v] && !r.admitted[v] {
		r.admitted[v] = true
		r.members = append(r.members, v)
	}
}

// Seal lays out the arcs into the admitted vertices by source: one pass
// over the admitted vertices' own arc lists sizes the groups, a second
// fills them through the reverse index. Nothing is sorted; the parallel
// arcs into one vertex keep their CSR (weight) order.
func (r *Restriction) Seal() {
	f := r.f
	for _, v := range r.members {
		for _, u := range f.targets[f.offsets[v]:f.offsets[v+1]] {
			if r.cnt[u] == 0 {
				r.sources = append(r.sources, u)
			}
			r.cnt[u]++
		}
	}
	total := int32(0)
	for _, u := range r.sources {
		r.off[u], total = total, total+r.cnt[u]
		r.cnt[u] = 0
	}
	r.arcs = slices.Grow(r.arcs[:0], int(total))[:total]
	for _, v := range r.members {
		for e := f.offsets[v]; e < f.offsets[v+1]; e++ {
			u := f.targets[e]
			r.arcs[r.off[u]+r.cnt[u]] = f.rev[e]
			r.cnt[u]++
		}
	}
}

// bars reports whether a search under r (nil bars nothing) may not enter v.
func (r *Restriction) bars(v int32) bool {
	return r != nil && r.f.restrictable[v] && !r.admitted[v]
}

// arcsAt returns the arcs a search under r relaxes at u: unrestricted (nil
// r) u's CSR region, positions lo to lo+n; restricted two lists of CSR
// positions, idx then more — u's core arcs and its arcs into admitted
// vertices. Targets are relaxed independently and parallel arcs keep their
// order either way, so the grouping changes no distance and no predecessor.
func (f *Frozen) arcsAt(u int32, r *Restriction) (lo, n int32, idx, more []int32) {
	if r == nil {
		return f.offsets[u], f.offsets[u+1] - f.offsets[u], nil, nil
	}
	idx = f.coreArc[f.coreOff[u]:f.coreOff[u+1]]
	if c := r.cnt[u]; c > 0 {
		more = r.arcs[r.off[u] : r.off[u]+c]
	}
	return 0, int32(len(idx)), idx, more
}
