package moca_test

import (
	"encoding/json"
	"os"
	"testing"
)

// benchTrajectory mirrors BENCH_throughput.json: the checked-in history of
// BenchmarkSimulatorThroughput, whose last entry is the current budget.
type benchTrajectory struct {
	Trajectory []struct {
		Commit      string `json:"commit"`
		NsPerOp     int64  `json:"ns_per_op"`
		AllocsPerOp int64  `json:"allocs_per_op"`
	} `json:"trajectory"`
}

// TestThroughputAllocBudget is the CI bench smoke: it runs the throughput
// benchmark (one iteration under -benchtime=1x) and fails if allocations
// per op regress more than 20% past the last checked-in trajectory point.
// Allocation counts, unlike wall time, are deterministic enough to gate on
// in shared CI runners. Skipped unless MOCA_BENCH_SMOKE=1.
func TestThroughputAllocBudget(t *testing.T) {
	if os.Getenv("MOCA_BENCH_SMOKE") == "" {
		t.Skip("set MOCA_BENCH_SMOKE=1 to run the bench smoke")
	}
	data, err := os.ReadFile("BENCH_throughput.json")
	if err != nil {
		t.Fatal(err)
	}
	var hist benchTrajectory
	if err := json.Unmarshal(data, &hist); err != nil {
		t.Fatalf("BENCH_throughput.json: %v", err)
	}
	if len(hist.Trajectory) == 0 {
		t.Fatal("BENCH_throughput.json has no trajectory points")
	}
	last := hist.Trajectory[len(hist.Trajectory)-1]
	res := testing.Benchmark(BenchmarkSimulatorThroughput)
	allocs := res.AllocsPerOp()
	budget := last.AllocsPerOp + last.AllocsPerOp/5
	t.Logf("allocs/op: measured %d, trajectory %d (%s), budget %d",
		allocs, last.AllocsPerOp, last.Commit, budget)
	if allocs > budget {
		t.Fatalf("allocation regression: %d allocs/op exceeds budget %d (last checked-in point %d @ %s); if intentional, add a new trajectory point to BENCH_throughput.json",
			allocs, budget, last.AllocsPerOp, last.Commit)
	}
}

// TestRepoLedgerLoads guards the checked-in ledger itself: it must parse
// and keep a monotone history of real measurements.
func TestRepoLedgerLoads(t *testing.T) {
	data, err := os.ReadFile("BENCH_throughput.json")
	if err != nil {
		t.Fatal(err)
	}
	var hist benchTrajectory
	if err := json.Unmarshal(data, &hist); err != nil {
		t.Fatalf("BENCH_throughput.json: %v", err)
	}
	if len(hist.Trajectory) < 3 {
		t.Fatalf("ledger has %d entries, want ≥ 3", len(hist.Trajectory))
	}
	for i, e := range hist.Trajectory {
		if e.NsPerOp <= 0 {
			t.Errorf("trajectory[%d] (%s) has ns_per_op %d", i, e.Commit, e.NsPerOp)
		}
	}
	last, prev := hist.Trajectory[len(hist.Trajectory)-1], hist.Trajectory[len(hist.Trajectory)-2]
	if last.NsPerOp >= prev.NsPerOp {
		t.Errorf("newest entry %s (%d ns/op) does not improve on %s (%d ns/op)",
			last.Commit, last.NsPerOp, prev.Commit, prev.NsPerOp)
	}
}
