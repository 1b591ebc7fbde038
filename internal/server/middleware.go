package server

import (
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"github.com/alvc/alvc/internal/trace"
)

// quietHandler is the default logger's handler: it enables no level, so
// a server built without WithLogger formats no line at all. (A text
// handler over io.Discard formats every line and then drops it;
// slog.DiscardHandler is Go 1.24.)
type quietHandler struct{}

func (quietHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (quietHandler) Handle(context.Context, slog.Record) error { return nil }
func (h quietHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h quietHandler) WithGroup(string) slog.Handler           { return h }

// statusRecorder captures the status code a handler writes so the
// logging and tracing middleware can report it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

// frame is what a traced request allocates, once: the recorder its
// handlers write through, the context that carries its span and span
// buffer (handed out by address, see trace.Carrier) and the one-value
// list its X-Trace-Id header points at.
type frame struct {
	rec     statusRecorder
	ctx     trace.Carrier
	traceID [1]string
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming handlers
// (the /v1/watch SSE stream) still see an http.Flusher behind the
// recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the connection behind the
// recorder: deadlines, hijack, and a Flush that reports its error.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// statusAttrs is a request span's attribute list per status the handlers
// write: built once and shared by every span that reports the status,
// since a recorded span is never edited.
var statusAttrs = make(map[int][]trace.Attr)

func init() {
	for _, code := range []int{200, 201, 202, 207, 400, 404, 405, 409, 422, 500} {
		statusAttrs[code] = []trace.Attr{{Key: "status", Value: strconv.Itoa(code)}}
	}
}

// untraced reports whether a path is excluded from request tracing:
// scrape and streaming endpoints would flood the store with spans that
// describe the observer, not the system, and the trace-query API —
// /v1/traces and a chain's /v1/chains/{id}/traces — must not generate
// traffic in the store it reads.
func untraced(path string) bool {
	return path == "/metrics" || path == "/healthz" ||
		path == "/v1/watch" || strings.HasPrefix(path, "/v1/traces") ||
		strings.HasPrefix(path, "/v1/chains/") && strings.HasSuffix(path, "/traces")
}

// withTracing opens the root span of every traced request. A client
// may pin the trace ID with an X-Trace-Id header (so CI and scripted
// callers can query the trace back by the ID they chose); otherwise a
// fresh ID is minted. The resolved ID is echoed in the X-Trace-Id
// response header either way, and the span context rides the request
// context into the handlers, where the orchestrator's provision and
// repair spans attach as children. The recorder, the context with the
// request's span buffer and the header's value are one allocation, the
// request's frame; the request's spans reach the store in one insert
// when it ends.
func withTracing(tr *trace.Tracer, next http.Handler) http.Handler {
	if tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if untraced(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		f := &frame{rec: statusRecorder{ResponseWriter: w}}
		var pinned trace.SpanContext
		if id := r.Header.Get("X-Trace-Id"); id != "" && trace.ValidTraceID(id) {
			pinned.TraceID = id
		}
		tr.Begin(&f.ctx, r.Context(), pinned)
		f.traceID[0] = f.ctx.SC.TraceID
		w.Header()["X-Trace-Id"] = f.traceID[:]
		start := time.Now()
		next.ServeHTTP(&f.rec, r.WithContext(&f.ctx))
		status := f.rec.status
		if status == 0 {
			status = http.StatusOK
		}
		sp := trace.Span{
			Name:  r.URL.Path,
			Kind:  trace.KindHTTP,
			Start: start,
			End:   time.Now(),
			Attrs: statusAttrs[status],
		}
		if sp.Attrs == nil {
			sp.Attrs = []trace.Attr{{Key: "status", Value: strconv.Itoa(status)}}
		}
		if status >= http.StatusInternalServerError {
			sp.Err = http.StatusText(status)
		}
		tr.EndRequest(&f.ctx, r.Method, sp)
	})
}

// withLogging logs one line per request: method, path, status, latency
// and — when the request is traced — the trace ID, so a slow or failed
// line in the log can be pivoted straight into GET /v1/traces/{id}.
func withLogging(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !logger.Enabled(r.Context(), slog.LevelInfo) {
			next.ServeHTTP(w, r) // nobody reads the line: no recorder, no clock, no attrs
			return
		}
		rec, ok := w.(*statusRecorder) // a traced request brought its own, in its frame
		if !ok {
			rec = &statusRecorder{ResponseWriter: w}
		}
		start := time.Now()
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("duration", time.Since(start).Round(time.Microsecond)),
		}
		if sc, ok := trace.FromContext(r.Context()); ok {
			attrs = append(attrs, slog.String("trace_id", sc.TraceID))
		}
		logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	})
}

// withRecovery converts handler panics into 500s instead of killing
// the connection (and, under some servers, the process).
func withRecovery(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				logger.Error("panic serving request",
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.Any("panic", v),
					slog.String("stack", string(debug.Stack())))
				writeError(w, http.StatusInternalServerError, "internal server error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}
