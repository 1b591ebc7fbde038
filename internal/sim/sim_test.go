package sim

import (
	"testing"
	"time"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	if err := e.At(3*time.Second, func(time.Duration) { order = append(order, 3) }); err != nil {
		t.Fatalf("At: %v", err)
	}
	if err := e.At(1*time.Second, func(time.Duration) { order = append(order, 1) }); err != nil {
		t.Fatalf("At: %v", err)
	}
	if err := e.At(2*time.Second, func(time.Duration) { order = append(order, 2) }); err != nil {
		t.Fatalf("At: %v", err)
	}
	n := e.Run()
	if n != 3 {
		t.Fatalf("Run processed %d, want 3", n)
	}
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", e.Now())
	}
}

func TestEngineFIFOWithinSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		if err := e.At(time.Second, func(time.Duration) { order = append(order, i) }); err != nil {
			t.Fatalf("At: %v", err)
		}
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-instant events out of FIFO order: %v", order)
		}
	}
}

func TestEngineHandlersScheduleMore(t *testing.T) {
	e := NewEngine()
	count := 0
	var chain Handler
	chain = func(now time.Duration) {
		count++
		if count < 10 {
			if err := e.At(now+time.Millisecond, chain); err != nil {
				t.Errorf("At: %v", err)
			}
		}
	}
	if err := e.At(0, chain); err != nil {
		t.Fatalf("At: %v", err)
	}
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 9*time.Millisecond {
		t.Fatalf("Now = %v, want 9ms", e.Now())
	}
}

func TestEngineRejectsPastAndNil(t *testing.T) {
	e := NewEngine()
	if err := e.At(time.Second, func(time.Duration) {}); err != nil {
		t.Fatalf("At: %v", err)
	}
	e.Run()
	if err := e.At(500*time.Millisecond, func(time.Duration) {}); err == nil {
		t.Fatal("scheduling in the past accepted")
	}
	if err := e.At(2*time.Second, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}
