package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"moca/internal/cpu"
	"moca/internal/mem"
	"moca/internal/sim"
	"moca/internal/workload"
)

func openCache(t *testing.T, dir string, mode CacheMode) *RunCache {
	t.Helper()
	c, err := OpenRunCache(dir, mode)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCacheRoundTrip: a second runner pointed at the same cache directory
// performs zero simulations and zero profiling runs, and its results match
// the originals numerically.
func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()

	r1 := fastRunner()
	r1.Cache = openCache(t, dir, CacheReadWrite)
	res1, err := r1.RunSingle(heterAppDef(), "mcf")
	if err != nil {
		t.Fatal(err)
	}
	if st := r1.Stats(); st.Simulated != 1 || st.Profiled != 1 {
		t.Fatalf("first runner: Simulated=%d Profiled=%d, want 1/1", st.Simulated, st.Profiled)
	}
	if st := r1.Cache.Stats(); st.Writes < 2 {
		t.Fatalf("first runner wrote %d cache entries, want profile + result", st.Writes)
	}

	r2 := fastRunner()
	r2.Cache = openCache(t, dir, CacheReadWrite)
	swapNewSystem(t, func(cfg sim.Config, procs []sim.ProcSpec) (*sim.System, error) {
		t.Error("simulation constructed despite a warm cache")
		return sim.New(cfg, procs)
	})
	res2, err := r2.RunSingle(heterAppDef(), "mcf")
	if err != nil {
		t.Fatal(err)
	}
	st := r2.Stats()
	if st.Simulated != 0 || st.Profiled != 0 {
		t.Errorf("second runner: Simulated=%d Profiled=%d, want 0/0", st.Simulated, st.Profiled)
	}
	if st.DiskHits != 1 || st.ProfileDiskHits != 1 {
		t.Errorf("second runner: DiskHits=%d ProfileDiskHits=%d, want 1/1", st.DiskHits, st.ProfileDiskHits)
	}
	if res2.Name != res1.Name {
		t.Errorf("cached result name %q, want %q", res2.Name, res1.Name)
	}
	if res2.Elapsed != res1.Elapsed ||
		res2.MemEnergyJ() != res1.MemEnergyJ() ||
		res2.SystemEDP() != res1.SystemEDP() ||
		res2.TotalInstructions() != res1.TotalInstructions() ||
		res2.AvgMemAccessTime() != res1.AvgMemAccessTime() {
		t.Error("cached result diverges numerically from the simulated one")
	}
}

// TestCacheResume: a cache warmed with part of a sweep only simulates the
// missing runs — the crash-resume property.
func TestCacheResume(t *testing.T) {
	dir := t.TempDir()

	r1 := fastRunner()
	r1.Cache = openCache(t, dir, CacheReadWrite)
	if _, err := r1.RunSingle(ddr3Def(), "mcf"); err != nil {
		t.Fatal(err)
	}

	r2 := fastRunner()
	r2.Cache = openCache(t, dir, CacheReadWrite)
	calls := countingNewSystem(t)
	for _, app := range []string{"mcf", "gcc"} {
		if _, err := r2.RunSingle(ddr3Def(), app); err != nil {
			t.Fatal(err)
		}
	}
	if *calls != 1 {
		t.Errorf("resumed sweep constructed %d simulations, want 1 (only the missing run)", *calls)
	}
	if st := r2.Stats(); st.DiskHits != 1 || st.Simulated != 1 {
		t.Errorf("DiskHits=%d Simulated=%d, want 1/1", st.DiskHits, st.Simulated)
	}
}

// TestCacheSaltEviction: entries written under an older simulator behavior
// version are evicted on load and the run re-simulates.
func TestCacheSaltEviction(t *testing.T) {
	dir := t.TempDir()

	r1 := fastRunner()
	r1.Cache = openCache(t, dir, CacheReadWrite)
	if _, err := r1.RunSingle(ddr3Def(), "mcf"); err != nil {
		t.Fatal(err)
	}

	// A reader whose salt differs (as after a sim.BehaviorVersion bump)
	// must treat every existing entry as stale.
	r2 := fastRunner()
	c2 := openCache(t, dir, CacheReadWrite)
	c2.salt = "moca-cache-v0/sim-v0"
	r2.Cache = c2
	if _, err := r2.RunSingle(ddr3Def(), "mcf"); err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Simulated != 1 || st.DiskHits != 0 {
		t.Errorf("stale-salt runner: Simulated=%d DiskHits=%d, want 1/0", st.Simulated, st.DiskHits)
	}
	if st := c2.Stats(); st.Evictions == 0 {
		t.Error("stale entries were not evicted")
	}
	if st := c2.Stats(); st.Hits != 0 {
		t.Errorf("stale entries counted as hits: %d", st.Hits)
	}
}

// TestCacheReadMode: a read-mode pass over a directory that holds a
// valid, a stale-salt, a truncated and a zero-byte entry plus an abandoned
// temp file serves the valid entry, recomputes the rest in memory, and
// leaves every file byte-identical: no eviction, no sweep, no write.
func TestCacheReadMode(t *testing.T) {
	dir := t.TempDir()
	apps := []string{"mcf", "gcc", "lbm"}
	r1 := fastRunner()
	c1 := openCache(t, dir, CacheReadWrite)
	r1.Cache = c1
	keys := map[string]string{}
	for _, app := range apps {
		before := snapshotDir(t, dir)
		if _, err := r1.RunSingle(heterAppDef(), app); err != nil {
			t.Fatal(err)
		}
		for name := range snapshotDir(t, dir) {
			if _, ok := before[name]; !ok {
				keys[app+"/"+strings.SplitN(name, "-", 2)[0]] = filepath.Join(dir, name)
			}
		}
	}
	// mcf stays valid. gcc's result carries an older salt and its profile
	// is zero bytes; lbm's result is cut in half.
	stale, err := os.ReadFile(keys["gcc/result"])
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := bytes.Cut(stale, newline)
	if err := os.WriteFile(keys["gcc/result"], append([]byte("moca-cache-v2/sim-v0\n"), rest...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keys["gcc/profile"], nil, 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err := os.ReadFile(keys["lbm/result"])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keys["lbm/result"], torn[:len(torn)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, ".result-dead123.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * sweepTempGrace)
	if err := os.Chtimes(tmp, old, old); err != nil {
		t.Fatal(err)
	}
	snap := snapshotDir(t, dir)

	r2 := fastRunner()
	c2 := openCache(t, dir, CacheRead)
	r2.Cache = c2
	for _, app := range apps {
		if _, err := r2.RunSingle(heterAppDef(), app); err != nil {
			t.Fatal(err)
		}
	}
	after := snapshotDir(t, dir)
	if len(after) != len(snap) {
		t.Errorf("read-mode pass changed the file count: %d -> %d", len(snap), len(after))
	}
	for name, data := range snap {
		if got, ok := after[name]; !ok {
			t.Errorf("read-mode pass removed %s", name)
		} else if got != data {
			t.Errorf("read-mode pass rewrote %s", name)
		}
	}
	if st := r2.Stats(); st.DiskHits != 1 || st.ProfileDiskHits != 2 || st.Simulated != 2 || st.Profiled != 1 {
		t.Errorf("DiskHits=%d ProfileDiskHits=%d Simulated=%d Profiled=%d, want 1/2/2/1",
			st.DiskHits, st.ProfileDiskHits, st.Simulated, st.Profiled)
	}
	if st := c2.Stats(); st.Hits != 3 || st.Misses != 3 || st.Writes != 0 || st.Evictions != 0 {
		t.Errorf("Hits=%d Misses=%d Writes=%d Evictions=%d, want 3/3/0/0", st.Hits, st.Misses, st.Writes, st.Evictions)
	}
}

// TestCacheCorruptEntryEvicted: a truncated or garbled cache file is
// evicted and the lookup reported as a miss, never a crash.
func TestCacheCorruptEntryEvicted(t *testing.T) {
	dir := t.TempDir()
	r1 := fastRunner()
	c1 := openCache(t, dir, CacheReadWrite)
	r1.Cache = c1
	if _, err := r1.RunSingle(ddr3Def(), "mcf"); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		// Truncate every entry mid-JSON, as a pre-atomic writer crash would.
		if err := os.WriteFile(dir+"/"+e.Name(), []byte(`{"salt":"x`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r2 := fastRunner()
	c2 := openCache(t, dir, CacheReadWrite)
	r2.Cache = c2
	if _, err := r2.RunSingle(ddr3Def(), "mcf"); err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Simulated != 1 {
		t.Errorf("Simulated=%d after corruption, want 1", st.Simulated)
	}
	if st := c2.Stats(); st.Evictions == 0 || st.Hits != 0 {
		t.Errorf("corrupt entries: Evictions=%d Hits=%d, want >0 evictions and 0 hits", st.Evictions, st.Hits)
	}
}

// TestCacheOpenSweepsCrashDebris: opening a cache removes stale orphaned
// temp files and evicts zero-byte entries (the residue of a crash between
// a non-durable rename and power loss), while leaving fresh temps — a
// concurrent writer's work in flight — and valid entries alone.
func TestCacheOpenSweepsCrashDebris(t *testing.T) {
	dir := t.TempDir()

	// A valid entry, written through the normal durable path.
	c1 := openCache(t, dir, CacheReadWrite)
	if err := c1.StoreResult([]byte("k"), &sim.Result{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	validPath := c1.path("result", []byte("k"))

	stale := dir + "/.result-dead123.tmp"
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * sweepTempGrace)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	fresh := dir + "/.result-live456.tmp"
	if err := os.WriteFile(fresh, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := dir + "/result-" + strings.Repeat("0", 64) + ".json"
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := openCache(t, dir, CacheReadWrite)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp survived the sweep (err=%v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp was swept: %v", err)
	}
	if _, err := os.Stat(empty); !os.IsNotExist(err) {
		t.Errorf("zero-byte entry survived the sweep (err=%v)", err)
	}
	if _, err := os.Stat(validPath); err != nil {
		t.Errorf("valid entry was swept: %v", err)
	}
	if st := c2.Stats(); st.Evictions != 1 {
		t.Errorf("Evictions=%d after sweep, want 1 (the zero-byte entry)", st.Evictions)
	}
	if res, ok := c2.LoadResult([]byte("k")); !ok || res.Name != "x" {
		t.Errorf("valid entry unreadable after sweep: ok=%v", ok)
	}
}

// TestCacheZeroByteEntryEvictedOnLoad: even without a reopen, a zero-byte
// entry is treated as corrupt on access — evicted and reported as a
// miss — so one crash artifact cannot poison the slot forever.
func TestCacheZeroByteEntryEvictedOnLoad(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir, CacheReadWrite)
	if err := c.StoreResult([]byte("k"), &sim.Result{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path("result", []byte("k")), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LoadResult([]byte("k")); ok {
		t.Fatal("zero-byte entry decoded as a hit")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Hits != 0 {
		t.Errorf("Evictions=%d Hits=%d, want 1 eviction and 0 hits", st.Evictions, st.Hits)
	}
	if _, err := os.Stat(c.path("result", []byte("k"))); !os.IsNotExist(err) {
		t.Errorf("zero-byte entry still on disk (err=%v)", err)
	}
}

// sinkStream is a trivial cpu.Stream used only to prove streams are
// excluded from cache keys.
type sinkStream struct{}

func (sinkStream) Next() (cpu.Instr, bool) { return cpu.Instr{}, false }

// TestResultCacheKeyCanonical: the key fragments are stable for identical
// inputs and blind to presentation-only and non-data fields, and the key
// appendResultKey splices from them is sensitive to everything that
// shapes the run.
func TestResultCacheKeyCanonical(t *testing.T) {
	cfgKey := func(cfg sim.Config) string {
		t.Helper()
		k, err := configKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return string(k)
	}
	pKey := func(p sim.ProcSpec) string {
		t.Helper()
		k, err := procKey(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(k)
	}
	proc := sim.ProcSpec{App: workload.MCF(), Input: workload.Ref}
	key := func(cfg sim.Config, measure, window uint64) string {
		return string(appendResultKey(nil, []byte(cfgKey(cfg)), [][]byte{[]byte(pKey(proc))}, measure, window, cfg.Obs.Metrics))
	}
	cfg := sim.DefaultConfig("A", sim.Homogeneous(mem.DDR3), sim.PolicyFixed)
	base := key(cfg, 100, 200)
	if key(cfg, 100, 200) != base {
		t.Error("identical inputs produced different keys")
	}

	renamed := cfg
	renamed.Name = "B"
	if cfgKey(renamed) != cfgKey(cfg) {
		t.Error("Config.Name leaked into the key")
	}

	streamed := proc
	streamed.Stream = sinkStream{}
	if pKey(streamed) != pKey(proc) {
		t.Error("ProcSpec.Stream leaked into the key")
	}
	if streamed.Stream == nil {
		t.Error("procKey mutated its input spec")
	}

	if key(cfg, 101, 200) == base {
		t.Error("Measure does not affect the key")
	}
	if key(cfg, 100, 201) == base {
		t.Error("ProfileWindow does not affect the key")
	}
	hbm := sim.DefaultConfig("A", sim.Homogeneous(mem.HBM), sim.PolicyFixed)
	if key(hbm, 100, 200) == base {
		t.Error("memory modules do not affect the key")
	}
	moca := sim.DefaultConfig("A", sim.Heterogeneous(sim.Config1), sim.PolicyMOCA)
	if key(moca, 100, 200) == base {
		t.Error("placement policy does not affect the key")
	}

	if !strings.Contains(base, `"kind":"result"`) {
		t.Errorf("key is not self-describing: %s", base[:60])
	}
}

// TestFig10ResumesFromCache: the acceptance scenario — a second full
// "fig10" sweep against a warm cache performs zero simulations and zero
// profiling runs.
func TestFig10ResumesFromCache(t *testing.T) {
	skipHeavy(t, "two full fig10 sweeps")
	dir := t.TempDir()

	r1 := fastRunner()
	r1.Measure = 20_000
	r1.Cache = openCache(t, dir, CacheReadWrite)
	g1, err := r1.Fig10()
	if err != nil {
		t.Fatal(err)
	}

	r2 := fastRunner()
	r2.Measure = 20_000
	r2.Cache = openCache(t, dir, CacheReadWrite)
	swapNewSystem(t, func(cfg sim.Config, procs []sim.ProcSpec) (*sim.System, error) {
		t.Error("simulation constructed despite a warm cache")
		return sim.New(cfg, procs)
	})
	g2, err := r2.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	st := r2.Stats()
	if st.Simulated != 0 || st.Profiled != 0 {
		t.Errorf("resumed fig10: Simulated=%d Profiled=%d, want 0/0", st.Simulated, st.Profiled)
	}
	if st.DiskHits == 0 {
		t.Error("resumed fig10 loaded nothing from disk")
	}
	if g1.CSV() != g2.CSV() {
		t.Error("resumed fig10 grid differs from the simulated one")
	}
}
