package exp

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"moca/internal/mem"
	"moca/internal/sim"
	"moca/internal/workload"
)

// TestWarmLoadsEachAppOnce: a cold warm at Parallelism 2 profiles each
// distinct app of its runs exactly once, though several runs, and one mix
// twice over, share it; a warm pass by a fresh runner loads each profile
// from the cache once, profiles and simulates nothing, and reproduces
// every result.
func TestWarmLoadsEachAppOnce(t *testing.T) {
	dir := t.TempDir()
	runner := func(mode CacheMode) *Runner {
		r := NewRunner()
		r.Measure = 10_000
		r.FW.ProfileWindow = 10_000
		r.Parallelism = 2
		r.Cache = openCache(t, dir, mode)
		return r
	}
	std := StandardSystems()
	systems := []SystemDef{std[0], std[4], std[5]} // DDR3, Heter-App, MOCA
	var mixes []workload.Mix
	for _, name := range []string{"4N", "2B2N"} { // gcc twice in 4N
		m, ok := workload.MixByName(name)
		if !ok {
			t.Fatalf("mix %s missing", name)
		}
		mixes = append(mixes, m)
	}
	apps := make(map[string]bool)
	for _, m := range mixes {
		for _, app := range m.Apps {
			apps[app] = true
		}
	}

	cold := runner(CacheReadWrite)
	if err := cold.warm(systems, "mix/", mixes); err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Profiled != uint64(len(apps)) || st.ProfileDiskHits != 0 {
		t.Errorf("cold pass profiled %d apps and loaded %d, want %d and 0", st.Profiled, st.ProfileDiskHits, len(apps))
	}

	warm := runner(CacheRead)
	if err := warm.warm(systems, "mix/", mixes); err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.ProfileDiskHits != uint64(len(apps)) || st.Profiled != 0 || st.Simulated != 0 {
		t.Errorf("warm pass: ProfileDiskHits=%d Profiled=%d Simulated=%d, want %d/0/0",
			st.ProfileDiskHits, st.Profiled, st.Simulated, len(apps))
	}
	want, got := cold.Results(), warm.Results()
	if len(got) != len(systems)*len(mixes) || len(got) != len(want) {
		t.Fatalf("warm pass memoized %d results, cold %d, want %d", len(got), len(want), len(systems)*len(mixes))
	}
	for key, res := range want {
		a, _ := res.MarshalJSON()
		b, _ := got[key].MarshalJSON()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: warm result differs from the cold one", key)
		}
	}
}

// TestWarmReportsLoadError: an app that cannot be loaded fails the pass
// with its own error, not with the cancellation it causes in the runs
// still queued.
func TestWarmReportsLoadError(t *testing.T) {
	r := fastRunner()
	r.Parallelism = 2
	runs := []workload.Mix{{Name: "bad", Apps: []string{"mcf", "no-such-app"}}}
	err := r.warm(StandardSystems(), "mix/", runs)
	if err == nil || !strings.Contains(err.Error(), `unknown app "no-such-app"`) {
		t.Fatalf("warm returned %v, want the unknown-app error", err)
	}
}

// TestReadEntry: a missing file is fs.ErrNotExist, an empty one reads as
// nothing, and an entry larger than the pooled buffer grows it and reads
// whole after what the buffer already held.
func TestReadEntry(t *testing.T) {
	dir := t.TempDir()
	buf := make([]byte, 0, 16<<10)
	if _, err := readEntry(filepath.Join(dir, "missing"), buf); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: err %v, want fs.ErrNotExist", err)
	}
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := readEntry(empty, buf); err != nil || len(got) != 0 {
		t.Errorf("empty file: read %d bytes, err %v", len(got), err)
	}
	large := make([]byte, 40<<10+123)
	for i := range large {
		large[i] = byte(i * 7)
	}
	path := filepath.Join(dir, "large")
	if err := os.WriteFile(path, large, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readEntry(path, append(buf, "prefix"...))
	if err != nil || !bytes.Equal(got, append([]byte("prefix"), large...)) {
		t.Errorf("large file: read %d bytes (err %v), want %d after the prefix", len(got), err, len(large))
	}
}

// TestSystemByNameTable: every name resolves to what a fresh build of
// its modules gives, and a lookup allocates nothing.
func TestSystemByNameTable(t *testing.T) {
	type homogen struct {
		name string
		kind mem.Kind
	}
	homogens := map[string]homogen{
		"ddr3": {"homogen-ddr3", mem.DDR3}, "rl": {"homogen-rl", mem.RLDRAM}, "rldram": {"homogen-rl", mem.RLDRAM},
		"hbm": {"homogen-hbm", mem.HBM}, "lp": {"homogen-lp", mem.LPDDR2}, "lpddr2": {"homogen-lp", mem.LPDDR2},
	}
	heters := map[string]sim.PolicyKind{"heter-app": sim.PolicyAppLevel, "moca": sim.PolicyMOCA, "migrate": sim.PolicyMigrate}
	configs := map[string]sim.HeterConfig{"": sim.Config1, "@config1": sim.Config1, "@config2": sim.Config2, "@config3": sim.Config3}
	check := func(name string, want SystemDef) {
		t.Helper()
		got, err := SystemByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Name != want.Name || got.Policy != want.Policy || got.Chains != nil || !slices.Equal(got.Modules, want.Modules) {
			t.Errorf("%s: got %+v, want %+v", name, got, want)
		}
	}
	for suffix, sel := range configs {
		for base, h := range homogens {
			check(base+suffix, SystemDef{Name: h.name, Modules: sim.Homogeneous(h.kind), Policy: sim.PolicyFixed})
		}
		for base, policy := range heters {
			check(base+suffix, SystemDef{Name: base, Modules: sim.Heterogeneous(sel), Policy: policy})
		}
	}
	for _, bad := range []string{"ddr4", "moca@config4", "moca@", "@config2", "MOCA"} {
		if _, err := SystemByName(bad); err == nil {
			t.Errorf("%q resolved", bad)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := SystemByName("moca@config2"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SystemByName allocates %v times per call, want 0", n)
	}
}
