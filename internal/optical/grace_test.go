package optical

import (
	"strings"
	"testing"

	"github.com/alvc/alvc/internal/topology"
)

// TestRetuneMakeBeforeBreak: during a retune the flow holds both
// generations — the old channel stays reserved until commit.
func TestRetuneMakeBeforeBreak(t *testing.T) {
	w, err := NewWDM(2)
	if err != nil {
		t.Fatalf("NewWDM: %v", err)
	}
	oldLinks := []topology.LinkID{1, 2}
	newLinks := []topology.LinkID{3, 4}
	if _, err := w.AssignPath("t/a", oldLinks); err != nil {
		t.Fatalf("AssignPath: %v", err)
	}
	lambda, err := w.RetuneBegin("t/a", newLinks)
	if err != nil {
		t.Fatalf("RetuneBegin: %v", err)
	}
	if !w.InGrace("t/a") {
		t.Fatal("flow not in grace after RetuneBegin")
	}
	// Both generations hold channels.
	for _, l := range append(append([]topology.LinkID(nil), oldLinks...), newLinks...) {
		if w.Utilizations()[l] != 1 {
			t.Fatalf("link %d utilization = %d, want 1 (both generations lit)", l, w.Utilizations()[l])
		}
	}
	if a, ok := w.AssignmentOf("t/a"); !ok || a.Lambda != lambda || a.Links[0] != newLinks[0] {
		t.Fatalf("current assignment = %+v, want new generation", a)
	}
	if err := w.RetuneCommit("t/a"); err != nil {
		t.Fatalf("RetuneCommit: %v", err)
	}
	if w.InGrace("t/a") {
		t.Fatal("grace window open after commit")
	}
	for _, l := range oldLinks {
		if w.Utilizations()[l] != 0 {
			t.Fatalf("old link %d still lit after commit", l)
		}
	}
	for _, l := range newLinks {
		if w.Utilizations()[l] != 1 {
			t.Fatalf("new link %d not lit after commit", l)
		}
	}
}

// TestRetuneAbortRestoresOldGeneration: an aborted retune must leave
// the flow exactly as before — old λ, old links.
func TestRetuneAbortRestoresOldGeneration(t *testing.T) {
	w, err := NewWDM(2)
	if err != nil {
		t.Fatalf("NewWDM: %v", err)
	}
	oldLinks := []topology.LinkID{1, 2}
	oldLambda, err := w.AssignPath("t/a", oldLinks)
	if err != nil {
		t.Fatalf("AssignPath: %v", err)
	}
	if _, err := w.RetuneBegin("t/a", []topology.LinkID{3}); err != nil {
		t.Fatalf("RetuneBegin: %v", err)
	}
	if err := w.RetuneAbort("t/a"); err != nil {
		t.Fatalf("RetuneAbort: %v", err)
	}
	a, ok := w.AssignmentOf("t/a")
	if !ok || a.Lambda != oldLambda || len(a.Links) != 2 {
		t.Fatalf("assignment after abort = %+v, want old generation", a)
	}
	if w.Utilizations()[3] != 0 {
		t.Fatal("aborted new link still lit")
	}
	if w.InGrace("t/a") {
		t.Fatal("grace window open after abort")
	}
}

// TestRetuneSharedLinkNeedsSecondWavelength: when old and new paths
// share a link, the retune must take a different λ there (the old one
// is still lit) — the essence of the two-λ grace.
func TestRetuneSharedLinkNeedsSecondWavelength(t *testing.T) {
	w, err := NewWDM(2)
	if err != nil {
		t.Fatalf("NewWDM: %v", err)
	}
	oldLambda, err := w.AssignPath("t/a", []topology.LinkID{1, 2})
	if err != nil {
		t.Fatalf("AssignPath: %v", err)
	}
	newLambda, err := w.RetuneBegin("t/a", []topology.LinkID{2, 3})
	if err != nil {
		t.Fatalf("RetuneBegin over shared link: %v", err)
	}
	if newLambda == oldLambda {
		t.Fatalf("retune reused λ%d on a shared lit link", oldLambda)
	}
	if w.Utilizations()[2] != 2 {
		t.Fatalf("shared link utilization = %d, want 2 (two-λ grace)", w.Utilizations()[2])
	}
	if err := w.RetuneCommit("t/a"); err != nil {
		t.Fatalf("RetuneCommit: %v", err)
	}
	if w.Utilizations()[2] != 1 || w.Utilizations()[1] != 0 {
		t.Fatalf("post-commit utilization: link1=%d link2=%d", w.Utilizations()[1], w.Utilizations()[2])
	}
}

// TestRetuneBlocksWithoutSecondWavelength: with capacity 1 and a shared
// link, no second channel exists — RetuneBegin must fail without side
// effects (callers fall back to break-before-make).
func TestRetuneBlocksWithoutSecondWavelength(t *testing.T) {
	w, err := NewWDM(1)
	if err != nil {
		t.Fatalf("NewWDM: %v", err)
	}
	oldLambda, err := w.AssignPath("t/a", []topology.LinkID{1, 2})
	if err != nil {
		t.Fatalf("AssignPath: %v", err)
	}
	if _, err := w.RetuneBegin("t/a", []topology.LinkID{2, 3}); err == nil {
		t.Fatal("RetuneBegin succeeded with no free second wavelength")
	} else if !strings.Contains(err.Error(), "blocked") {
		t.Fatalf("unexpected error: %v", err)
	}
	// No side effects: old assignment intact, no grace, link 3 dark.
	if a, ok := w.AssignmentOf("t/a"); !ok || a.Lambda != oldLambda {
		t.Fatalf("assignment disturbed by failed retune: %+v ok=%v", a, ok)
	}
	if w.InGrace("t/a") || w.Utilizations()[3] != 0 {
		t.Fatal("failed retune left side effects")
	}
}

// TestRetuneWithoutAssignmentDegeneratesToAssign: a flow with no
// current wavelength gets a plain assignment (fresh-build semantics).
func TestRetuneWithoutAssignmentDegeneratesToAssign(t *testing.T) {
	w, err := NewWDM(1)
	if err != nil {
		t.Fatalf("NewWDM: %v", err)
	}
	lambda, err := w.RetuneBegin("t/a", []topology.LinkID{1})
	if err != nil {
		t.Fatalf("RetuneBegin: %v", err)
	}
	if lambda != 0 || w.InGrace("t/a") {
		t.Fatalf("degenerate retune: λ=%d inGrace=%v, want λ=0 and no grace", lambda, w.InGrace("t/a"))
	}
	if err := w.RetuneCommit("t/a"); err == nil {
		t.Fatal("commit without grace succeeded")
	}
}

// TestReleaseClearsGrace: a teardown mid-retune must free both
// generations.
func TestReleaseClearsGrace(t *testing.T) {
	w, err := NewWDM(2)
	if err != nil {
		t.Fatalf("NewWDM: %v", err)
	}
	if _, err := w.AssignPath("t/a", []topology.LinkID{1}); err != nil {
		t.Fatalf("AssignPath: %v", err)
	}
	if _, err := w.RetuneBegin("t/a", []topology.LinkID{2}); err != nil {
		t.Fatalf("RetuneBegin: %v", err)
	}
	if err := w.Release("t/a"); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if w.Utilizations()[1] != 0 || w.Utilizations()[2] != 0 {
		t.Fatalf("release leaked channels: link1=%d link2=%d", w.Utilizations()[1], w.Utilizations()[2])
	}
	if w.InGrace("t/a") {
		t.Fatal("grace survived release")
	}
	if _, ok := w.AssignmentOf("t/a"); ok {
		t.Fatal("assignment survived release")
	}
}
