package scenario

import (
	"context"
	"testing"

	"faros/internal/core"
	"faros/internal/samples"
)

// TestUnionStatsOnChurnWorkload guards the union counter path. The Table V
// churn workloads accumulate tainted bytes with reg-reg ALU ops, so every
// run performs real provenance unions; a benchmark report showing
// "unions: 0" on them means the stats plumbing regressed, not that the
// workload stopped unioning (that happened once: the memo fast path
// returned before the counter).
func TestUnionStatsOnChurnWorkload(t *testing.T) {
	spec := samples.PerfWorkloads()[0].Spec
	res, err := RunLiveContext(context.Background(), spec, Plugins{Faros: &core.Config{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	ts := res.Faros.Stats().Taint
	if ts.Unions == 0 {
		t.Fatalf("churn workload reported zero unions: %+v", ts)
	}
	if ts.UnionMemoHits == 0 {
		t.Errorf("accumulate loop should hit the union memo: %+v", ts)
	}
	if ts.UnionMemoHits > ts.Unions {
		t.Errorf("memo hits (%d) exceed unions (%d)", ts.UnionMemoHits, ts.Unions)
	}
}
