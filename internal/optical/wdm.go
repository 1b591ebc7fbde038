package optical

import (
	"fmt"
	"sync"

	"github.com/alvc/alvc/internal/topology"
)

// WDM assigns wavelengths to provisioned flows on the optical side of
// the network (boundary and optical links). The paper's orchestrator
// "logically divides the optical network into virtual slices"; besides
// the OPS-level slicing of SliceManager, real optical slices are
// wavelength channels. WDM enforces the classic wavelength-continuity
// constraint: one flow uses the same λ on every optical-segment link of
// its path, first-fit assigned, blocking when no common λ is free.
// Safe for concurrent use.
type WDM struct {
	mu       sync.Mutex
	capacity int
	// used[link][lambda] = flow key.
	used map[topology.LinkID]map[int]string
	// flows[flowKey] = assignment.
	flows map[string]Assignment
	// graced[flowKey] = the previous generation of a flow mid-retune:
	// during a make-before-break repair the flow briefly holds two
	// wavelengths — the old channel stays lit until the new rules are
	// live (RetuneCommit), or the move is aborted (RetuneAbort).
	graced map[string]Assignment
}

// Assignment records one flow's wavelength on its optical links.
type Assignment struct {
	Lambda int
	Links  []topology.LinkID
}

// NewWDM returns a WDM allocator with the given wavelengths per link.
func NewWDM(wavelengths int) (*WDM, error) {
	if wavelengths <= 0 {
		return nil, fmt.Errorf("optical: wdm: wavelengths must be positive, got %d", wavelengths)
	}
	return &WDM{
		capacity: wavelengths,
		used:     make(map[topology.LinkID]map[int]string),
		flows:    make(map[string]Assignment),
		graced:   make(map[string]Assignment),
	}, nil
}

// Capacity returns the wavelengths per link.
func (w *WDM) Capacity() int { return w.capacity }

// AssignPath reserves the lowest wavelength free on every given link
// for the flow (wavelength continuity). It fails without side effects
// when no common wavelength exists (the flow is blocked) or the flow
// already holds an assignment.
func (w *WDM) AssignPath(flowKey string, links []topology.LinkID) (int, error) {
	if flowKey == "" {
		return 0, fmt.Errorf("optical: wdm: empty flow key")
	}
	if len(links) == 0 {
		return 0, fmt.Errorf("optical: wdm: empty link list")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.assignLocked(flowKey, links)
}

// assignLocked is the first-fit continuity-constrained search. Caller
// holds w.mu.
func (w *WDM) assignLocked(flowKey string, links []topology.LinkID) (int, error) {
	if _, dup := w.flows[flowKey]; dup {
		return 0, fmt.Errorf("optical: wdm: flow %q already assigned", flowKey)
	}
	for lambda := 0; lambda < w.capacity; lambda++ {
		free := true
		for _, l := range links {
			if _, taken := w.used[l][lambda]; taken {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		for _, l := range links {
			if w.used[l] == nil {
				w.used[l] = make(map[int]string)
			}
			w.used[l][lambda] = flowKey
		}
		w.flows[flowKey] = Assignment{Lambda: lambda, Links: append([]topology.LinkID(nil), links...)}
		return lambda, nil
	}
	return 0, fmt.Errorf("optical: wdm: flow %q blocked: no common wavelength on %d links (capacity %d)",
		flowKey, len(links), w.capacity)
}

// releaseAssignmentLocked frees one assignment's channels. Caller holds
// w.mu.
func (w *WDM) releaseAssignmentLocked(a Assignment) {
	for _, l := range a.Links {
		delete(w.used[l], a.Lambda)
		if len(w.used[l]) == 0 {
			delete(w.used, l)
		}
	}
}

// RetuneBegin starts a make-before-break wavelength move: the flow's
// current assignment is parked in a grace slot — its channels stay
// reserved, the optical signal stays lit — and a second wavelength is
// assigned on the new links. The move finishes with RetuneCommit (after
// the new rules are live) or RetuneAbort (the repair failed; the old
// assignment is restored untouched). A flow with no current assignment
// degenerates to a plain AssignPath. It fails without side effects when
// no second wavelength is free (callers may then fall back to
// break-before-make) or when a retune is already in progress.
func (w *WDM) RetuneBegin(flowKey string, links []topology.LinkID) (int, error) {
	if flowKey == "" {
		return 0, fmt.Errorf("optical: wdm: empty flow key")
	}
	if len(links) == 0 {
		return 0, fmt.Errorf("optical: wdm: empty link list")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, inGrace := w.graced[flowKey]; inGrace {
		return 0, fmt.Errorf("optical: wdm: flow %q already mid-retune", flowKey)
	}
	old, had := w.flows[flowKey]
	if !had {
		return w.assignLocked(flowKey, links)
	}
	delete(w.flows, flowKey)
	lambda, err := w.assignLocked(flowKey, links)
	if err != nil {
		w.flows[flowKey] = old // restore; nothing changed
		return 0, err
	}
	w.graced[flowKey] = old
	return lambda, nil
}

// RetuneCommit releases the parked previous-generation wavelength; the
// new assignment becomes the flow's only one. Committing a flow that is
// not mid-retune is an error.
func (w *WDM) RetuneCommit(flowKey string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	old, ok := w.graced[flowKey]
	if !ok {
		return fmt.Errorf("optical: wdm: commit: flow %q not mid-retune", flowKey)
	}
	w.releaseAssignmentLocked(old)
	delete(w.graced, flowKey)
	return nil
}

// RetuneAbort undoes RetuneBegin: the new wavelength is released and
// the parked previous generation becomes current again, exactly as
// before the move.
func (w *WDM) RetuneAbort(flowKey string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	old, ok := w.graced[flowKey]
	if !ok {
		return fmt.Errorf("optical: wdm: abort: flow %q not mid-retune", flowKey)
	}
	if cur, has := w.flows[flowKey]; has {
		w.releaseAssignmentLocked(cur)
	}
	w.flows[flowKey] = old
	delete(w.graced, flowKey)
	return nil
}

// InGrace reports whether the flow is mid-retune (holding two
// wavelengths).
func (w *WDM) InGrace(flowKey string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.graced[flowKey]
	return ok
}

// Release frees the flow's wavelength — both generations, if the flow
// is mid-retune (a teardown must not leak the graced channel).
// Releasing an unknown flow is an error.
func (w *WDM) Release(flowKey string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	a, ok := w.flows[flowKey]
	old, inGrace := w.graced[flowKey]
	if !ok && !inGrace {
		return fmt.Errorf("optical: wdm: release: unknown flow %q", flowKey)
	}
	if ok {
		w.releaseAssignmentLocked(a)
		delete(w.flows, flowKey)
	}
	if inGrace {
		w.releaseAssignmentLocked(old)
		delete(w.graced, flowKey)
	}
	return nil
}

// AssignmentOf returns the flow's assignment, if any.
func (w *WDM) AssignmentOf(flowKey string) (Assignment, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	a, ok := w.flows[flowKey]
	if !ok {
		return Assignment{}, false
	}
	a.Links = append([]topology.LinkID(nil), a.Links...)
	return a, true
}

// Utilizations returns wavelengths-in-use per link for every link with
// at least one lit channel — the congestion early-warning feed: each
// entry over Capacity gives a link's λ occupancy ratio. The map is a
// fresh copy; grace channels count (they are physically lit).
func (w *WDM) Utilizations() map[topology.LinkID]int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[topology.LinkID]int, len(w.used))
	for l, lambdas := range w.used {
		out[l] = len(lambdas)
	}
	return out
}

// OpticalSegmentLinks extracts, in order, the link IDs of the path's
// optical segments: every hop where at least one endpoint is an OPS
// (boundary and optical links) — the links a wavelength must be
// reserved on.
func OpticalSegmentLinks(topo *topology.Topology, path []topology.NodeID) ([]topology.LinkID, error) {
	var out []topology.LinkID
	for i := 0; i+1 < len(path); i++ {
		a, b := topo.Node(path[i]), topo.Node(path[i+1])
		if a == nil || b == nil {
			return nil, fmt.Errorf("optical: segment links: unknown node in path")
		}
		if a.Kind != topology.KindOPS && b.Kind != topology.KindOPS {
			continue
		}
		l := topo.LinkBetween(path[i], path[i+1])
		if l == nil {
			return nil, fmt.Errorf("optical: segment links: no live link %d-%d", path[i], path[i+1])
		}
		out = append(out, l.ID)
	}
	return out, nil
}
