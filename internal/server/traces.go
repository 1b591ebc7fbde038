package server

// The trace-query surface: GET /v1/traces lists retained traces
// (filterable, slowest-first), GET /v1/traces/{id} returns one trace
// as a span tree, and GET /v1/chains/{id}/traces lists the lifecycle
// traces of one deployment. The store keeps flat spans; the tree is
// assembled here at read time so the hot recording path stays a plain
// append.

import (
	"net/http"
	"strconv"
	"time"

	"github.com/alvc/alvc"
)

// TraceSummaryJSON is the list-view of one trace.
type TraceSummaryJSON struct {
	ID         string  `json:"id"`
	Kind       string  `json:"kind"`
	Name       string  `json:"name"`
	Start      string  `json:"start"`
	DurationMS float64 `json:"duration_ms"`
	Spans      int     `json:"spans"`
	Dropped    int     `json:"dropped,omitempty"`
	Errored    bool    `json:"errored,omitempty"`
	Chains     []int   `json:"chains,omitempty"`
}

// SpanJSON is one span in a trace tree, children nested.
type SpanJSON struct {
	SpanID     uint64      `json:"span_id"`
	Name       string      `json:"name"`
	Kind       string      `json:"kind"`
	Start      string      `json:"start"`
	DurationMS float64     `json:"duration_ms"`
	Error      string      `json:"error,omitempty"`
	Chain      int         `json:"chain,omitempty"`
	Links      []string    `json:"links,omitempty"`
	Attrs      []AttrJSON  `json:"attrs,omitempty"`
	Children   []*SpanJSON `json:"children,omitempty"`
}

// AttrJSON is one span annotation.
type AttrJSON struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// TraceJSON is the body of GET /v1/traces/{id}: the span tree plus
// any spans whose parent was not retained (orphans surface as extra
// roots rather than disappearing).
type TraceJSON struct {
	ID      string      `json:"id"`
	Spans   int         `json:"spans"`
	Dropped int         `json:"dropped,omitempty"`
	Roots   []*SpanJSON `json:"roots"`
}

// buildTraceJSON nests flat spans into parent→children order. Spans
// are recorded on completion, so children typically arrive before
// their parents — the tree is linked only after every node exists.
func buildTraceJSON(id string, spans []alvc.TraceSpan, dropped int) TraceJSON {
	nodes := make(map[uint64]*SpanJSON, len(spans))
	for _, sp := range spans {
		n := &SpanJSON{
			SpanID:     uint64(sp.SpanID),
			Name:       sp.Name,
			Kind:       sp.Kind,
			Start:      sp.Start.UTC().Format(time.RFC3339Nano),
			DurationMS: float64(sp.Duration()) / float64(time.Millisecond),
			Error:      sp.Err,
			Chain:      sp.Dep,
			Links:      sp.Links,
		}
		for _, a := range sp.Attrs {
			n.Attrs = append(n.Attrs, AttrJSON{Key: a.Key, Value: a.Value})
		}
		nodes[n.SpanID] = n
	}
	out := TraceJSON{ID: id, Spans: len(spans), Dropped: dropped}
	for _, sp := range spans {
		n := nodes[uint64(sp.SpanID)]
		if parent, ok := nodes[uint64(sp.Parent)]; ok && sp.Parent != 0 {
			parent.Children = append(parent.Children, n)
		} else {
			out.Roots = append(out.Roots, n)
		}
	}
	return out
}

// traceStore resolves the architecture's trace store, writing a 404
// when tracing was disabled with WithTracing(nil).
func (s *Server) traceStore(w http.ResponseWriter) *alvc.TraceStore {
	st := s.arch.TraceStore()
	if st == nil {
		writeError(w, http.StatusNotFound, "tracing not enabled")
	}
	return st
}

func (s *Server) handleListTraces(w http.ResponseWriter, r *http.Request) {
	st := s.traceStore(w)
	if st == nil {
		return
	}
	var q alvc.TraceQuery
	qs := r.URL.Query()
	q.Kind = qs.Get("kind")
	if v := qs.Get("min_duration"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid min_duration %q: %v", v, err)
			return
		}
		q.MinDuration = d
	}
	if v := qs.Get("errored"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid errored %q: %v", v, err)
			return
		}
		q.Errored = b
	}
	if v := qs.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "invalid limit %q", v)
			return
		}
		q.Limit = n
	}
	writeTraceSummaries(w, func(add func(alvc.TraceSummary)) { st.ViewTraces(q, add) })
}

func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	st := s.traceStore(w)
	if st == nil {
		return
	}
	id := r.PathValue("id")
	spans, dropped, ok := st.Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown trace %q", id)
		return
	}
	writeJSON(w, http.StatusOK, buildTraceJSON(id, spans, dropped))
}

func (s *Server) handleChainTraces(w http.ResponseWriter, r *http.Request) {
	st := s.traceStore(w)
	if st == nil {
		return
	}
	id, ok := s.pathID(w, r)
	if !ok {
		return
	}
	writeTraceSummaries(w, func(add func(alvc.TraceSummary)) { st.ViewChainTraces(int(id), add) })
}
