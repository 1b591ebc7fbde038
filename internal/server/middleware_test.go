package server

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/alvc/alvc/internal/trace"
)

// TestQuietLoggerCostsNothing: the default logger enables no level, and
// withLogging asks before it does anything — the handler below it gets
// the writer it was given, not a recorder, and the request allocates
// nothing on the way through. A logger that is listening still gets its
// line.
func TestQuietLoggerCostsNothing(t *testing.T) {
	quiet := slog.New(quietHandler{})
	for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelError} {
		if quiet.Enabled(context.Background(), level) {
			t.Errorf("the quiet handler enables %v", level)
		}
	}
	quiet.With("k", "v").WithGroup("g").Error("dropped") // the derived loggers are quiet too

	var got http.ResponseWriter
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { got = w })
	rec, req := httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil)
	h := withLogging(quiet, next)
	h.ServeHTTP(rec, req)
	if got != http.ResponseWriter(rec) {
		t.Errorf("quiet logging handed the handler a %T, want the writer untouched", got)
	}
	if allocs := testing.AllocsPerRun(50, func() { h.ServeHTTP(rec, req) }); allocs != 0 {
		t.Errorf("quiet logging allocates %.0f times a request", allocs)
	}

	var lines bytes.Buffer
	withLogging(slog.New(slog.NewTextHandler(&lines, nil)), next).ServeHTTP(rec, req)
	if _, wrapped := got.(*statusRecorder); !wrapped || !strings.Contains(lines.String(), "path=/healthz status=200") {
		t.Errorf("a listening logger: handler got a %T, log %q", got, lines.String())
	}
}

// FuzzTraceIDHeader: trace.ValidTraceID accepts exactly 1 to 64 bytes of
// ASCII letters, digits, '-', '_' and '.', and withTracing echoes an
// inbound X-Trace-Id in the response, and files the request's trace
// under it, exactly when it is valid; any other value gets a minted ID
// that is itself valid and never the value sent.
func FuzzTraceIDHeader(f *testing.F) {
	for _, s := range []string{"", "ci-run_1.2", "a", strings.Repeat("x", 64), strings.Repeat("x", 65), "has space", "tab\t",
		"new\nline", "héllo", "semi;colon", "slash/", "<script>", "\x00", "-", "..", "T-1"} {
		f.Add(s)
	}
	store := trace.NewStore(trace.StoreOptions{})
	h := withTracing(trace.NewTracer(store), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sc, ok := trace.FromContext(requestContext(w, r)); !ok || sc.TraceID != w.Header().Get("X-Trace-Id") {
			http.Error(w, "the handler's span is not in the echoed trace: "+sc.TraceID, http.StatusInternalServerError)
		}
	}))
	f.Fuzz(func(t *testing.T, id string) {
		valid := id != "" && len(id) <= 64 && strings.Trim(id, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.") == ""
		if trace.ValidTraceID(id) != valid {
			t.Fatalf("ValidTraceID(%q) = %v, want %v", id, !valid, valid)
		}
		req := httptest.NewRequest("GET", "/v1/chains", nil)
		req.Header.Set("X-Trace-Id", id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		echo := rec.Header().Get("X-Trace-Id")
		if rec.Code != http.StatusOK {
			t.Fatalf("X-Trace-Id %q: %d %s", id, rec.Code, rec.Body)
		}
		switch {
		case valid && echo != id:
			t.Fatalf("valid X-Trace-Id %q echoed as %q", id, echo)
		case !valid && (echo == id || !trace.ValidTraceID(echo)):
			t.Fatalf("invalid X-Trace-Id %q answered with trace %q, want a minted valid ID", id, echo)
		}
		if _, _, ok := store.Trace(echo); !ok {
			t.Fatalf("X-Trace-Id %q: no trace %q in the store", id, echo)
		}
	})
}
