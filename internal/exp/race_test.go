package exp

import (
	"testing"

	"moca/internal/obs"
	"moca/internal/sim"
	"moca/internal/workload"
)

// skipHeavy skips the multi-minute figure sweeps in -short mode and under
// the race detector, whose ~10x slowdown would blow the go test timeout.
// TestRunnerConcurrentObservability below keeps race coverage of the
// runner's concurrency; the sweeps add only (deterministic) volume.
func skipHeavy(t *testing.T, why string) {
	t.Helper()
	if testing.Short() {
		t.Skip(why)
	}
	if raceEnabled {
		t.Skip("heavy sweep under the race detector: " + why)
	}
}

// TestRunnerConcurrentObservability drives the runner's parallel warmers
// with observability fully enabled: per-run registries plus one shared
// trace sink. Under `go test -race` this exercises every instrument and
// the sink from concurrent simulations.
func TestRunnerConcurrentObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent multi-run sweep in -short mode")
	}
	tr := obs.NewTrace(4096)
	r := NewRunner()
	r.Measure = 40_000
	r.FW.ProfileWindow = 40_000
	r.Parallelism = 4
	r.Obs = obs.Options{Metrics: true, Trace: tr}

	systems := []SystemDef{
		StandardSystems()[0], // Homogen-DDR3
		StandardSystems()[5], // MOCA
	}
	apps := []string{"mcf", "gcc", "sift"}
	if err := r.warmSingles(systems, apps); err != nil {
		t.Fatal(err)
	}
	mix, ok := workload.MixByName("2L1B1N")
	if !ok {
		t.Fatal("mix 2L1B1N missing")
	}
	if err := r.warm(systems, "mix/", []workload.Mix{mix}); err != nil {
		t.Fatal(err)
	}

	results := r.Results()
	wantRuns := len(systems)*len(apps) + len(systems)
	if len(results) != wantRuns {
		t.Fatalf("cached %d results, want %d", len(results), wantRuns)
	}
	var snaps []*sim.Result
	for key, res := range results {
		if res.Obs == nil {
			t.Errorf("%s: no obs snapshot despite metrics enabled", key)
			continue
		}
		if res.Obs.Counters["event.executed"] == 0 {
			t.Errorf("%s: event.executed = 0", key)
		}
		if res.Obs.Counters["mem.reads"]+res.Obs.Counters["mem.writes"] == 0 {
			t.Errorf("%s: no memory traffic counted", key)
		}
		snaps = append(snaps, res)
	}
	// Per-run registries must be independent: the total is the sum.
	var sum, total uint64
	for _, res := range snaps {
		sum += res.Obs.Counters["event.executed"]
	}
	merged := obs.Merge(func() []*obs.Snapshot {
		var s []*obs.Snapshot
		for _, res := range snaps {
			s = append(s, res.Obs)
		}
		return s
	}()...)
	total = merged.Counters["event.executed"]
	if sum != total {
		t.Errorf("merged event.executed %d != sum of runs %d", total, sum)
	}
	if tr.Len() == 0 {
		t.Error("shared trace sink received no events")
	}
}
