package sdn

import (
	"fmt"
	"sort"

	"github.com/alvc/alvc/internal/topology"
)

// The memo's audit predicate and its recorder, for the external tests
// that drive whole fleets.

func RecordMemoQuestions(c *Controller) { c.recordMemoQuestions() }

func AuditMemo(c *Controller) (checked int, bad []string) { return c.auditMemo() }

// ComputePath returns the lowest-latency path between two nodes. When
// restrictOPS is non-nil only those OPSs may be traversed (routing
// inside a slice). VMs are routed via their host PM.
func (c *Controller) ComputePath(src, dst topology.NodeID, restrictOPS topology.NodeSet) ([]topology.NodeID, error) {
	c.countPathComputations(1)
	snap := c.snapshot()
	r := snap.Restrict(restrictOPS)
	defer snap.Release(r)
	path, _, err := snap.AppendShortestPathIn(nil, src, dst, r)
	if err != nil {
		return nil, fmt.Errorf("sdn: compute path %d->%d: %w", src, dst, err)
	}
	return path, nil
}

// ruleIDs returns the IDs of the flow's rules in path order.
func ruleIDs(c *Controller, flowKey string) []RuleID {
	var ids []RuleID
	for _, r := range c.RulesForFlow(flowKey) {
		ids = append(ids, r.ID)
	}
	return ids
}

// RulesAt returns copies of the rules installed on the given switch,
// sorted by rule ID.
func (c *Controller) RulesAt(sw topology.NodeID) []FlowRule {
	c.mu.Lock()
	defer c.mu.Unlock()
	rules := c.table(sw)
	out := make([]FlowRule, 0, len(rules))
	for _, r := range rules {
		out = append(out, copyRule(r))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FlowHits returns the total hits across the flow's rules.
func (c *Controller) FlowHits(flowKey string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	rules := c.flows[flowKey]
	for i := range rules {
		total += rules[i].Hits
	}
	return total
}
