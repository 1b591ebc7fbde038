package orch

// Domain-level re-protection: the storm-group entry point the
// background optimizer calls instead of fanning a coalesced group back
// out to per-chain ReProtect. One GroupPlanner per failure domain
// plans every survivor of the domain off the domain's risk groups,
// under one hold of the topology lock.

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/alvc/alvc/internal/resilience"
)

// GroupOutcome is one member chain's result within a group
// re-protection pass; the fields mirror ReProtect's returns.
type GroupOutcome struct {
	ID DeploymentID
	// Standby is the chain's protection after the pass: its immutable
	// record, not a copy (nil when the chain was left unprotected).
	Standby *resilience.Standby
	// Replanned reports whether a fresh standby search ran (false when
	// the existing standby was alive and disjoint, or the member was
	// skipped busy).
	Replanned bool
	// Err carries the member's failure: ErrBusy when a concurrent
	// exclusive operation owned the chain (the caller should requeue
	// it), or the planning error that left the chain unprotected.
	Err error
}

// GroupReport is the result of one ReProtectGroup pass.
type GroupReport struct {
	// Domain is the failure domain the group was coalesced under
	// ("srlg:3+7" or "batch:N").
	Domain string
	// Outcomes has one entry per requested member, in ascending ID
	// order.
	Outcomes []GroupOutcome
	// Stats is the shared planner's summary for the pass.
	Stats resilience.GroupStats
}

// ReProtectGroup re-protects every given chain as one failure-domain
// group: the domain's risk groups are parsed once into a shared
// avoidance set and every member is planned through one GroupPlanner
// that avoids them on top of the member's own primary. Per-member
// semantics are ReProtect's exactly: alive-and-disjoint standbys are left alone,
// busy members are skipped with ErrBusy in their outcome (never
// blocked on), and a failed plan drops the dead standby rather than
// leaving a stale alternate indexed.
//
// The topology read lock is held once across the whole group, so a
// structural mutation waits for the pass rather than splitting it.
func (o *Orchestrator) ReProtectGroup(domain string, ids []DeploymentID) GroupReport {
	rep := GroupReport{Domain: domain}
	if len(ids) == 0 {
		return rep
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)

	o.topoMu.RLock()
	defer o.topoMu.RUnlock()

	var gp *resilience.GroupPlanner
	if !o.noStandby {
		gp, _ = resilience.NewGroupPlanner(o.ctrl, o.topo, domainSRLGs(domain))
	}
	for _, id := range sorted {
		dep, err := o.beginExclusive(id)
		if err != nil {
			rep.Outcomes = append(rep.Outcomes, GroupOutcome{ID: id, Err: fmt.Errorf("orch: re-protect: %w", err)})
			continue
		}
		sb, replanned, err := o.reProtectDep(dep, gp)
		o.endExclusive(id)
		rep.Outcomes = append(rep.Outcomes, GroupOutcome{ID: id, Standby: sb, Replanned: replanned, Err: err})
	}
	if gp != nil {
		rep.Stats = gp.Stats()
	}
	return rep
}

// domainSRLGs parses a failure-domain tag back into its shared-risk
// groups: "srlg:3+7" → [3, 7]; batch domains and malformed tags parse
// to nil (an anonymous domain with no avoidance set).
func domainSRLGs(domain string) []int {
	rest, ok := strings.CutPrefix(domain, "srlg:")
	if !ok || rest == "" {
		return nil
	}
	parts := strings.Split(rest, "+")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		g, err := strconv.Atoi(p)
		if err != nil {
			return nil
		}
		out = append(out, g)
	}
	return out
}
