package server

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"testing"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/orch"
	"github.com/alvc/alvc/internal/slot"
)

// TestStaleIDsAnswerAsDeleted: at one shard and at four, a fleet with no
// deletes numbers shard s's chains s+1, s+1+n, s+1+2n, … (1, 2, 3, … at
// one shard). Once a deleted chain's slot holds a new chain, the old ID
// answers as the deleted chain — GET a tombstone, an edit and a second
// DELETE 409, no chain traces, no impact — and none of it touches the
// new chain.
func TestStaleIDsAnswerAsDeleted(t *testing.T) {
	for _, shards := range []int{1, 4} {
		ts, _ := newTestServerWith(t, wideConfig(32), alvc.WithShards(shards))
		router := orch.NewShardRouter(shards, orch.ShardByTenant)
		target, n := -1, 0
		provision := func() DeploymentJSON {
			t.Helper()
			for i := 0; ; i++ {
				body := specBody(fmt.Sprintf("c%d-%d", n, i), fmt.Sprintf("t%d-%d", n, i), "web", "firewall")
				sh := router.ShardForSpec(mustSpec(t, body))
				if target >= 0 && sh != target {
					continue
				}
				target = sh
				status, resp := do(t, "POST", ts.URL+"/v1/chains", body)
				if status != http.StatusCreated {
					t.Fatalf("%d shards: provision: %d (%s)", shards, status, resp)
				}
				n++
				return mustUnmarshal[DeploymentJSON](t, resp)
			}
		}
		// Eight chains fill the shard's first slot table.
		var deps []DeploymentJSON
		for j := 0; j < 8; j++ {
			dep := provision()
			if want := target + 1 + shards*j; dep.ID != want {
				t.Errorf("%d shards: chain %d of shard %d has ID %d, want %d", shards, j, target, dep.ID, want)
			}
			deps = append(deps, dep)
		}
		old := deps[0]
		oldURL := fmt.Sprintf("%s/v1/chains/%d", ts.URL, old.ID)
		if status, body := do(t, "DELETE", oldURL, nil); status != http.StatusOK {
			t.Fatalf("%d shards: delete: %d (%s)", shards, status, body)
		}
		cur := provision()
		if s, _ := slot.Of(cur.ID); s != target || cur.ID == old.ID {
			t.Fatalf("%d shards: the next chain is %d in slot %d, want a new ID in chain %d's slot %d", shards, cur.ID, s, old.ID, target)
		}
		curURL := fmt.Sprintf("%s/v1/chains/%d", ts.URL, cur.ID)

		status, body := do(t, "GET", oldURL, nil)
		if got := mustUnmarshal[DeploymentJSON](t, body); status != http.StatusOK || got.ID != old.ID || got.State != "deleted" || got.Name != old.Name {
			t.Errorf("%d shards: GET the old ID: %d %+v, want its tombstone", shards, status, got)
		}
		if status, body = do(t, "POST", oldURL+"/upgrade", nil); status != http.StatusConflict {
			t.Errorf("%d shards: upgrade through the old ID: %d (%s), want 409", shards, status, body)
		}
		if status, body = do(t, "DELETE", oldURL, nil); status != http.StatusConflict {
			t.Errorf("%d shards: second DELETE of the old ID: %d (%s), want 409", shards, status, body)
		}
		if status, body = do(t, "GET", oldURL+"/traces", nil); status != http.StatusOK || string(bytes.TrimSpace(body)) != "[]" {
			t.Errorf("%d shards: chain traces of the old ID: %d %s, want none", shards, status, body)
		}
		status, body = do(t, "GET", curURL+"/traces", nil)
		traces := mustUnmarshal[[]TraceSummaryJSON](t, body)
		if status != http.StatusOK || len(traces) == 0 {
			t.Errorf("%d shards: chain traces of the new chain: %d %s", shards, status, body)
		}
		for _, tr := range traces {
			if slices.Contains(tr.Chains, old.ID) {
				t.Errorf("%d shards: the new chain's trace %s names the old ID", shards, tr.ID)
			}
		}
		status, body = do(t, "GET", fmt.Sprintf("%s/v1/nodes/%d/impact", ts.URL, cur.SliceOPSs[0]), nil)
		impact := mustUnmarshal[ImpactResponse](t, body)
		if status != http.StatusOK || len(impact.Chains) != 1 || impact.Chains[0].ID != cur.ID {
			t.Errorf("%d shards: impact of the new chain's OPS: %d %+v, want the new chain alone", shards, status, impact)
		}
		status, body = do(t, "GET", curURL, nil)
		if got := mustUnmarshal[DeploymentJSON](t, body); status != http.StatusOK || got.State != "active" || got.Version != 1 || got.Name != cur.Name {
			t.Errorf("%d shards: the new chain after the old ID's calls: %d %+v", shards, status, got)
		}
	}
}
