package graph

// CSR returns f's arrays, for tests outside the package to compare.
func (f *Frozen) CSR() (ids []VertexID, offsets, targets []int32, weights []float64, tags []int64) {
	return f.ids, f.offsets, f.targets, f.weights, f.tags
}

// ShortestPathIn is the package's ShortestPathIn into a path of its own.
func (f *Frozen) ShortestPathIn(src, dst VertexID, r *Restriction, m *LiveMask) ([]VertexID, float64, error) {
	return ShortestPathIn[VertexID](f, nil, src, dst, r, m)
}

// EdgeCount returns the number of edges of the source graph.
func (f *Frozen) EdgeCount() int { return f.edges }
