package server

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
