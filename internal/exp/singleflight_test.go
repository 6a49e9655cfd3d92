package exp

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"moca/internal/mem"
	"moca/internal/sim"
)

func ddr3Def() SystemDef {
	return SystemDef{Name: SysDDR3, Modules: sim.Homogeneous(mem.DDR3), Policy: sim.PolicyFixed}
}

// swapNewSystem replaces the simulator constructor seam for one test and
// restores it afterwards.
func swapNewSystem(t *testing.T, fn func(sim.Config, []sim.ProcSpec) (*sim.System, error)) {
	t.Helper()
	orig := newSystem
	newSystem = fn
	t.Cleanup(func() { newSystem = orig })
}

// countingNewSystem wraps sim.New with a mutex-guarded call counter.
func countingNewSystem(t *testing.T) *int {
	t.Helper()
	var mu sync.Mutex
	calls := 0
	swapNewSystem(t, func(cfg sim.Config, procs []sim.ProcSpec) (*sim.System, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return sim.New(cfg, procs)
	})
	return &calls
}

// TestRunSingleflight: N concurrent requests for the same run must execute
// exactly one simulation and share the identical result. This is the
// regression test for the old check-then-act race, and must pass under
// the race detector.
func TestRunSingleflight(t *testing.T) {
	r := fastRunner()
	if _, err := r.Instrument("mcf"); err != nil {
		t.Fatal(err)
	}
	calls := countingNewSystem(t)

	const n = 8
	results := make([]*sim.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = r.RunSingle(ddr3Def(), "mcf")
		}()
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d received a different *Result than caller 0", i)
		}
	}
	if *calls != 1 {
		t.Errorf("%d simulations constructed, want 1", *calls)
	}
	st := r.Stats()
	if st.Simulated != 1 {
		t.Errorf("Simulated = %d, want 1", st.Simulated)
	}
	if st.MemoryHits != n-1 {
		t.Errorf("MemoryHits = %d, want %d", st.MemoryHits, n-1)
	}
}

// TestRunPanicIsolated: a panicking simulation becomes that run's error —
// carrying the run key — and the key stays retryable afterwards.
func TestRunPanicIsolated(t *testing.T) {
	r := fastRunner()
	if _, err := r.Instrument("mcf"); err != nil {
		t.Fatal(err)
	}
	orig := newSystem
	swapNewSystem(t, func(cfg sim.Config, procs []sim.ProcSpec) (*sim.System, error) {
		panic("injected fault")
	})

	_, err := r.RunSingle(ddr3Def(), "mcf")
	if err == nil {
		t.Fatal("panicking run reported success")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "single/mcf") {
		t.Errorf("error lacks the panic diagnosis or run key: %v", err)
	}

	// Failed flights are forgotten: the same key works once the fault clears.
	newSystem = orig
	if _, err := r.RunSingle(ddr3Def(), "mcf"); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if st := r.Stats(); st.Simulated != 1 {
		t.Errorf("Simulated = %d, want 1", st.Simulated)
	}
}

// TestRunnerCancellation: a canceled runner context aborts runs with
// context.Canceled, both on the direct path and through the parallel
// warm-up, and executes no simulations.
func TestRunnerCancellation(t *testing.T) {
	r := fastRunner()
	if _, err := r.Instrument("mcf"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.Ctx = ctx

	if _, err := r.RunSingle(ddr3Def(), "mcf"); !errors.Is(err, context.Canceled) {
		t.Errorf("RunSingle returned %v, want context.Canceled", err)
	}
	if err := r.warmSingles([]SystemDef{ddr3Def()}, []string{"mcf"}); !errors.Is(err, context.Canceled) {
		t.Errorf("warmSingles returned %v, want context.Canceled", err)
	}
	if st := r.Stats(); st.Simulated != 0 {
		t.Errorf("Simulated = %d after cancellation, want 0", st.Simulated)
	}
}

// runConcurrently issues n concurrent RunSingle(def, app) calls on r and
// requires them all to succeed with one shared *sim.Result.
func runConcurrently(t *testing.T, r *Runner, n int, def SystemDef, app string) *sim.Result {
	t.Helper()
	results := make([]*sim.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = r.RunSingle(def, app)
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d received a different *Result than caller 0", i)
		}
	}
	return results[0]
}

// TestDiskHitSingleflight: concurrent requests for one key that the
// persistent cache holds read the entry once, whether the first caller
// looks it up itself (the app is already instrumented) or its flight
// profiles first, and share that one result.
func TestDiskHitSingleflight(t *testing.T) {
	dir := t.TempDir()
	warm := fastRunner()
	warm.Cache = openCache(t, dir, CacheReadWrite)
	if _, err := warm.RunSingle(ddr3Def(), "mcf"); err != nil {
		t.Fatal(err)
	}
	for _, instrumented := range []bool{true, false} {
		r := fastRunner()
		c := openCache(t, dir, CacheRead)
		r.Cache = c
		if instrumented {
			if _, err := r.Instrument("mcf"); err != nil {
				t.Fatal(err)
			}
		}
		before := c.Stats()
		calls := countingNewSystem(t)
		const n = 8
		runConcurrently(t, r, n, ddr3Def(), "mcf")
		if *calls != 0 {
			t.Errorf("instrumented=%v: %d simulations constructed, want 0", instrumented, *calls)
		}
		st := r.Stats()
		if st.DiskHits != 1 || st.MemoryHits != n-1 || st.Simulated != 0 || st.Profiled != 0 {
			t.Errorf("instrumented=%v: DiskHits=%d MemoryHits=%d Simulated=%d Profiled=%d, want 1/%d/0/0",
				instrumented, st.DiskHits, st.MemoryHits, st.Simulated, st.Profiled, n-1)
		}
		// The profile is the other hit when the flight instruments the app.
		wantHits := uint64(1)
		if !instrumented {
			wantHits = 2
		}
		if got := c.Stats().Hits - before.Hits; got != wantHits || c.Stats().Misses != 0 {
			t.Errorf("instrumented=%v: %d cache hits and %d misses, want %d and 0",
				instrumented, got, c.Stats().Misses, wantHits)
		}
	}
}

// TestMissAfterInlineLookupSimulatesOnce: when the first caller's own
// lookup misses, the run it prepared is simulated exactly once and stored
// once, and the concurrent callers share that result.
func TestMissAfterInlineLookupSimulatesOnce(t *testing.T) {
	r := fastRunner()
	c := openCache(t, t.TempDir(), CacheReadWrite)
	r.Cache = c
	if _, err := r.Instrument("mcf"); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	calls := countingNewSystem(t)
	const n = 8
	runConcurrently(t, r, n, ddr3Def(), "mcf")
	if *calls != 1 {
		t.Errorf("%d simulations constructed, want 1", *calls)
	}
	if st := r.Stats(); st.Simulated != 1 || st.DiskHits != 0 || st.MemoryHits != n-1 {
		t.Errorf("Simulated=%d DiskHits=%d MemoryHits=%d, want 1/0/%d", st.Simulated, st.DiskHits, st.MemoryHits, n-1)
	}
	after := c.Stats()
	if misses, writes := after.Misses-before.Misses, after.Writes-before.Writes; misses != 1 || writes != 1 {
		t.Errorf("%d lookups missed and %d entries were written, want 1 and 1", misses, writes)
	}
}
