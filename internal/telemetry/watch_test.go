package telemetry

import (
	"bufio"
	"context"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/alvc/alvc/internal/orch"
)

func repairEvent(dep int) orch.Event {
	return orch.Event{
		Kind:       orch.EventRepairCompleted,
		Deployment: orch.DeploymentID(dep),
		Action:     orch.ActionRepathed,
		Domain:     orch.FailureDomain{Batch: 1},
	}
}

func TestHubOrderingAndReplay(t *testing.T) {
	h := NewHub(0)
	for i := 1; i <= 5; i++ {
		h.OrchEvent(repairEvent(i))
	}
	// A late subscriber resuming after seq 2 must see 3,4,5 from the
	// ring, then live events, with strictly increasing sequence numbers.
	ch, cancel := h.Subscribe(2, 8)
	defer cancel()
	h.OrchEvent(repairEvent(6))

	want := uint64(2)
	for i := 0; i < 4; i++ {
		select {
		case se := <-ch:
			if se.Seq <= want {
				t.Fatalf("event %d: seq %d not increasing past %d", i, se.Seq, want)
			}
			want = se.Seq
		case <-time.After(time.Second):
			t.Fatalf("timed out waiting for event %d", i)
		}
	}
	if want != 6 {
		t.Fatalf("last seq %d, want 6", want)
	}
	if got := h.Events(); got != 6 {
		t.Fatalf("Events() = %d, want 6", got)
	}
}

func TestHubRingTrimsToHorizon(t *testing.T) {
	h := NewHub(0)
	total := defaultRingSize + 50
	for i := 0; i < total; i++ {
		h.OrchEvent(repairEvent(i))
	}
	// Resuming from 0 replays only the ring's horizon: the last
	// defaultRingSize events.
	ch, cancel := h.Subscribe(0, 1)
	defer cancel()
	first := <-ch
	if want := uint64(total - defaultRingSize + 1); first.Seq != want {
		t.Fatalf("first replayed seq %d, want %d", first.Seq, want)
	}
}

// TestHubSlowConsumerDropped proves the sink side never blocks: a
// subscriber that stops draining is dropped (channel closed) while
// OrchEvent keeps returning immediately.
func TestHubSlowConsumerDropped(t *testing.T) {
	h := NewHub(0)
	ch, cancel := h.Subscribe(0, 2)
	defer cancel()
	fast, cancelFast := h.Subscribe(0, 64)
	defer cancelFast()

	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			h.OrchEvent(repairEvent(i))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("OrchEvent blocked on a stalled subscriber")
	}

	// Drain the stalled channel: buffered events then close.
	n := 0
	for range ch {
		n++
	}
	if n != 2 {
		t.Fatalf("stalled subscriber received %d buffered events, want 2", n)
	}
	if h.Dropped() != 1 {
		t.Fatalf("Dropped() = %d, want 1", h.Dropped())
	}
	if h.Subscribers() != 1 {
		t.Fatalf("Subscribers() = %d, want 1 (the fast one)", h.Subscribers())
	}
	// The healthy subscriber saw everything in order.
	for i := 1; i <= 10; i++ {
		se := <-fast
		if se.Seq != uint64(i) {
			t.Fatalf("fast subscriber: seq %d, want %d", se.Seq, i)
		}
	}
}

// sseFrame is one parsed id/event/data triple off the wire.
type sseFrame struct {
	id, event, data string
}

// readFrames parses n SSE frames from the stream.
func readFrames(t *testing.T, sc *bufio.Scanner, n int) []sseFrame {
	t.Helper()
	var out []sseFrame
	var cur sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			out = append(out, cur)
			cur = sseFrame{}
			if len(out) == n {
				return out
			}
		}
	}
	t.Fatalf("stream ended after %d frames, want %d (scan err: %v)", len(out), n, sc.Err())
	return nil
}

func TestServeHTTPStreamsSSE(t *testing.T) {
	h := NewHub(0)
	ts := httptest.NewServer(h)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Wait for the handler to register its subscription, then emit.
	deadline := time.Now().Add(2 * time.Second)
	for h.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i <= 3; i++ {
		h.OrchEvent(repairEvent(i))
	}

	frames := readFrames(t, bufio.NewScanner(resp.Body), 3)
	for i, f := range frames {
		if f.id != string(rune('1'+i)) {
			t.Errorf("frame %d: id %q, want %d", i, f.id, i+1)
		}
		if f.event != "repair-completed" {
			t.Errorf("frame %d: event %q", i, f.event)
		}
		if !strings.Contains(f.data, `"kind":"repair-completed"`) ||
			!strings.Contains(f.data, `"action":"repathed"`) {
			t.Errorf("frame %d: unexpected data %q", i, f.data)
		}
	}
}

func TestServeHTTPLastEventIDResume(t *testing.T) {
	h := NewHub(0)
	for i := 1; i <= 4; i++ {
		h.OrchEvent(repairEvent(i))
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL, nil)
	req.Header.Set("Last-Event-ID", "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	frames := readFrames(t, bufio.NewScanner(resp.Body), 2)
	if frames[0].id != "3" || frames[1].id != "4" {
		t.Fatalf("resumed ids %q,%q, want 3,4", frames[0].id, frames[1].id)
	}
}

func TestServeHTTPBadLastEventID(t *testing.T) {
	h := NewHub(0)
	ts := httptest.NewServer(h)
	defer ts.Close()
	req, _ := http.NewRequest("GET", ts.URL, nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestHubCustomRingSizeResume: a hub built with a non-default ring
// size trims its Last-Event-ID replay horizon to that size, and a
// resuming subscriber sees exactly the retained tail.
func TestHubCustomRingSizeResume(t *testing.T) {
	if got := NewHub(0).horizon; got != defaultRingSize {
		t.Fatalf("NewHub(0) keeps %d events, want the default %d", got, defaultRingSize)
	}
	h := NewHub(16)
	total := 40
	for i := 0; i < total; i++ {
		h.OrchEvent(repairEvent(i))
	}
	// Resuming from before the horizon replays only the last 16 events.
	ch, cancel := h.Subscribe(0, 1)
	defer cancel()
	seq := uint64(total - 16)
	for i := 0; i < 16; i++ {
		select {
		case se := <-ch:
			if se.Seq != seq+1 {
				t.Fatalf("replay event %d: seq %d, want %d", i, se.Seq, seq+1)
			}
			seq = se.Seq
		case <-time.After(time.Second):
			t.Fatalf("timed out at replay event %d", i)
		}
	}
}

// TestHubStreamEventCarriesTraceID: the SSE wire form surfaces the
// emitting event's trace ID.
func TestHubStreamEventCarriesTraceID(t *testing.T) {
	h := NewHub(0)
	ev := repairEvent(3)
	ev.TraceID = "trace-xyz"
	h.OrchEvent(ev)
	ch, cancel := h.Subscribe(0, 1)
	defer cancel()
	select {
	case se := <-ch:
		if se.TraceID != "trace-xyz" {
			t.Fatalf("stream event trace = %q, want trace-xyz", se.TraceID)
		}
	case <-time.After(time.Second):
		t.Fatal("timed out waiting for replayed event")
	}
}

// FuzzLastEventID: a /v1/watch request is answered 400 exactly when its
// Last-Event-ID header is neither absent nor a decimal number of at most
// 64 bits, and otherwise streams, resuming after the number it names.
// The oracle is the header's digits read as a big integer.
func FuzzLastEventID(f *testing.F) {
	for _, s := range []string{"", "0", "2", "007", "18446744073709551615", "18446744073709551616", "-1", "+1",
		" 1", "1 ", "1_000", "0x10", "1e3", "not-a-number", "٣", "1\x00"} {
		f.Add(s)
	}
	h := NewHub(4)
	for i := 1; i <= 4; i++ {
		h.OrchEvent(repairEvent(i))
	}
	f.Fuzz(func(t *testing.T, v string) {
		want, ok := uint64(0), true
		if v != "" {
			n, isInt := new(big.Int).SetString(v, 10)
			ok = isInt && strings.Trim(v, "0123456789") == "" && n.IsUint64()
			if ok {
				want = n.Uint64()
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // the stream ends once it has started
		req := httptest.NewRequest("GET", "/v1/watch", nil).WithContext(ctx)
		req.Header.Set("Last-Event-ID", v)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch {
		case !ok && rec.Code != http.StatusBadRequest:
			t.Fatalf("Last-Event-ID %q answered %d, want 400", v, rec.Code)
		case ok && (rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "text/event-stream"):
			t.Fatalf("Last-Event-ID %q answered %d %q, want a 200 stream", v, rec.Code, rec.Header().Get("Content-Type"))
		}
		if !ok {
			return
		}
		// The stream may end before it writes its replay; what it writes
		// is the ring's tail after the number, in order.
		next := want + 1
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			id, isID := strings.CutPrefix(line, "id: ")
			if !isID {
				continue
			}
			if id != strconv.FormatUint(next, 10) {
				t.Fatalf("Last-Event-ID %q replayed id %s, want %d", v, id, next)
			}
			next++
		}
	})
}
