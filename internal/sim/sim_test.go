package sim

import (
	"testing"

	"moca/internal/classify"
	"moca/internal/heap"
	"moca/internal/mem"
	"moca/internal/workload"
)

const (
	testWarm    = 60_000
	testMeasure = 150_000
)

func runSingle(t *testing.T, cfg Config, proc ProcSpec) *Result {
	t.Helper()
	sys, err := New(cfg, []ProcSpec{proc})
	if err != nil {
		t.Fatal(err)
	}
	warm := sys.SuggestedWarmup()
	res, err := sys.Run(warm, testMeasure)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidateConfigs(t *testing.T) {
	cfg := DefaultConfig("x", Homogeneous(mem.DDR3), PolicyFixed)
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
	bad := cfg
	bad.Modules = nil
	if err := bad.Validate(); err == nil {
		t.Error("no modules accepted")
	}
	bad = cfg
	bad.Modules = []ModuleSpec{{Kind: mem.DDR3, CapacityBytes: 1 << 20, Channels: 0}}
	if err := bad.Validate(); err == nil {
		t.Error("zero channels accepted")
	}
	bad = cfg
	bad.Modules = []ModuleSpec{{Kind: mem.DDR3, CapacityBytes: 1<<20 + 1, Channels: 2}}
	if err := bad.Validate(); err == nil {
		t.Error("indivisible capacity accepted")
	}
}

func TestHeterogeneousConfigs(t *testing.T) {
	for _, hc := range []HeterConfig{Config1, Config2, Config3} {
		mods := Heterogeneous(hc)
		if len(mods) != 4 {
			t.Errorf("%v has %d modules, want 4 channels", hc, len(mods))
		}
		var kinds []mem.Kind
		for _, m := range mods {
			kinds = append(kinds, m.Kind)
			if m.Channels != 1 {
				t.Errorf("%v: heterogeneous module with %d channels", hc, m.Channels)
			}
		}
		if kinds[0] != mem.RLDRAM || kinds[1] != mem.HBM || kinds[2] != mem.LPDDR2 || kinds[3] != mem.LPDDR2 {
			t.Errorf("%v kinds = %v", hc, kinds)
		}
	}
	// Config1 capacities (scaled 256 MB / 768 MB / 2x512 MB).
	c1 := Heterogeneous(Config1)
	if c1[0].CapacityBytes != 4*mb || c1[1].CapacityBytes != 12*mb || c1[2].CapacityBytes != 8*mb {
		t.Errorf("config1 capacities wrong: %+v", c1)
	}
}

func TestSingleCoreHomogeneousRun(t *testing.T) {
	cfg := DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed)
	res := runSingle(t, cfg, ProcSpec{App: workload.MCF(), Input: workload.Ref})

	if len(res.Cores) != 1 || len(res.Channels) != 4 {
		t.Fatalf("cores=%d channels=%d", len(res.Cores), len(res.Channels))
	}
	c := res.Cores[0]
	if c.CPU.Instructions < testMeasure {
		t.Errorf("retired %d, want >= %d", c.CPU.Instructions, testMeasure)
	}
	if c.LLCMPKI() < 10 {
		t.Errorf("mcf MPKI = %.1f, expected memory-intensive (>10)", c.LLCMPKI())
	}
	if c.StallPerMiss() < 20 {
		t.Errorf("mcf stall/miss = %.1f, expected latency-bound (>20)", c.StallPerMiss())
	}
	if res.AvgMemAccessTime() <= 0 {
		t.Error("no memory access time measured")
	}
	if res.MemEnergyJ() <= 0 || res.SystemEDP() <= 0 {
		t.Error("energy accounting empty")
	}
	if res.MemRequests() == 0 {
		t.Error("no memory requests reached the channels")
	}
	// Homogeneous interleave: all four channels should see traffic.
	for i, ch := range res.Channels {
		if ch.Stats.Requests() == 0 {
			t.Errorf("channel %d idle under interleaving", i)
		}
	}
}

func TestRLDRAMFasterForMCF(t *testing.T) {
	// The premise of the whole paper: the latency-optimized module
	// services a pointer-chasing app faster than DDR3.
	run := func(kind mem.Kind) *Result {
		cfg := DefaultConfig("homogen", Homogeneous(kind), PolicyFixed)
		return runSingle(t, cfg, ProcSpec{App: workload.MCF(), Input: workload.Ref})
	}
	rl := run(mem.RLDRAM)
	d3 := run(mem.DDR3)
	if rl.AvgMemAccessTime() >= d3.AvgMemAccessTime() {
		t.Errorf("RLDRAM access time %d >= DDR3 %d for mcf", rl.AvgMemAccessTime(), d3.AvgMemAccessTime())
	}
	if rl.Elapsed >= d3.Elapsed {
		t.Errorf("RLDRAM runtime %d >= DDR3 %d for mcf", rl.Elapsed, d3.Elapsed)
	}
	// But RLDRAM burns far more memory power.
	if rl.MemPowerW() <= d3.MemPowerW() {
		t.Errorf("RLDRAM power %.3f <= DDR3 %.3f", rl.MemPowerW(), d3.MemPowerW())
	}
}

func TestLPDDRLowestPower(t *testing.T) {
	run := func(kind mem.Kind) *Result {
		cfg := DefaultConfig("homogen", Homogeneous(kind), PolicyFixed)
		return runSingle(t, cfg, ProcSpec{App: workload.GCC(), Input: workload.Ref})
	}
	lp, d3 := run(mem.LPDDR2), run(mem.DDR3)
	if lp.MemPowerW() >= d3.MemPowerW() {
		t.Errorf("LPDDR2 power %.3f >= DDR3 %.3f", lp.MemPowerW(), d3.MemPowerW())
	}
}

func TestMOCAPlacementSeparatesClasses(t *testing.T) {
	// Instrument disparity with a hand-built classification and check
	// pages land per class under MOCA.
	spec := workload.Disparity()
	cm := classMapFor(t, spec, map[string]classify.Class{
		"images":        classify.BandwidthSensitive,
		"disparity_map": classify.LatencySensitive,
		"kernel_buf":    classify.NonIntensive,
	})

	cfg := DefaultConfig("moca", Heterogeneous(Config1), PolicyMOCA)
	res := runSingle(t, cfg, ProcSpec{
		App: spec, Input: workload.Ref, Classes: cm, AppClass: classify.LatencySensitive,
	})

	pages := res.PagesOnKind()
	if pages[mem.RLDRAM] == 0 {
		t.Error("no pages on RLDRAM despite a latency-classified object")
	}
	if pages[mem.HBM] == 0 {
		t.Error("no pages on HBM despite a bandwidth-classified object")
	}
	if pages[mem.LPDDR2] == 0 {
		t.Error("no pages on LPDDR2 (stack/code/N objects)")
	}
	if res.OS.FallbackPages == 0 {
		t.Log("note: no fallback pages (capacity pressure may be absent)")
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() *Result {
		cfg := DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed)
		sys, err := New(cfg, []ProcSpec{{App: workload.Tracking(), Input: workload.Ref}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(50_000, 80_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed {
		t.Errorf("elapsed differs: %d vs %d", a.Elapsed, b.Elapsed)
	}
	if a.AvgMemAccessTime() != b.AvgMemAccessTime() {
		t.Errorf("latency differs: %d vs %d", a.AvgMemAccessTime(), b.AvgMemAccessTime())
	}
	if a.Cores[0].CPU != b.Cores[0].CPU {
		t.Errorf("core stats differ:\n%+v\n%+v", a.Cores[0].CPU, b.Cores[0].CPU)
	}
}

func TestMultiCoreRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multicore run in -short mode")
	}
	cfg := DefaultConfig("heter-moca", Heterogeneous(Config1), PolicyMOCA)
	mix, _ := workload.MixByName("2B2N")
	specs, _ := mix.Specs()
	var procs []ProcSpec
	for _, s := range specs {
		procs = append(procs, ProcSpec{App: s, Input: workload.Ref, AppClass: classify.NonIntensive})
	}
	sys, err := New(cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(sys.SuggestedWarmup(), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 4 {
		t.Fatalf("cores = %d", len(res.Cores))
	}
	for i, c := range res.Cores {
		if c.CPU.Instructions < 100_000 {
			t.Errorf("core %d retired %d < quota", i, c.CPU.Instructions)
		}
		if c.Window <= 0 || c.Window > res.Elapsed {
			t.Errorf("core %d window %d out of range (elapsed %d)", i, c.Window, res.Elapsed)
		}
	}
}

func TestProfilingRunProducesProfiles(t *testing.T) {
	cfg := DefaultConfig("profiler", Homogeneous(mem.DDR3), PolicyFixed)
	cfg.Profile = true
	res := runSingle(t, cfg, ProcSpec{App: workload.MCF(), Input: workload.Train})
	pr := res.Cores[0].Profile
	if pr == nil {
		t.Fatal("no profile from a profiling run")
	}
	if pr.Instructions == 0 {
		t.Error("profile has no instructions")
	}
	if len(pr.HeapObjects()) < 4 {
		t.Errorf("profile has %d heap objects, want >= 4 for mcf", len(pr.HeapObjects()))
	}
	hot := pr.HeapObjects()[0]
	if hot.MPKI <= 1 {
		t.Errorf("mcf's hottest object MPKI = %.2f, want memory-intensive", hot.MPKI)
	}
}

func TestWatchdogAndErrors(t *testing.T) {
	cfg := DefaultConfig("x", Homogeneous(mem.DDR3), PolicyFixed)
	sys, err := New(cfg, []ProcSpec{{App: workload.GCC(), Input: workload.Ref}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(0, 0); err == nil {
		t.Error("zero measure window accepted")
	}
	if _, err := New(cfg, nil); err == nil {
		t.Error("no processes accepted")
	}
}

func TestOOMSurfacesAsError(t *testing.T) {
	// A system with far too little memory must fail loudly, not wedge.
	cfg := DefaultConfig("tiny", []ModuleSpec{{Kind: mem.DDR3, CapacityBytes: 64 * 4096, Channels: 1}}, PolicyFixed)
	sys, err := New(cfg, []ProcSpec{{App: workload.MCF(), Input: workload.Ref}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(10_000, 10_000); err == nil {
		t.Error("running a 6 MB app in a 256 KB system did not error")
	}
}

// classMapFor builds a ClassMap by instantiating the spec on a scratch
// allocator and reading object keys back by label.
func classMapFor(t testing.TB, spec workload.AppSpec, classes map[string]classify.Class) heap.ClassMap {
	t.Helper()
	scratch := heap.New(heap.Config{})
	app, err := workload.Instantiate(spec, scratch, 0)
	if err != nil {
		t.Fatal(err)
	}
	cm := make(heap.ClassMap)
	for label, class := range classes {
		o, ok := app.Object(label)
		if !ok {
			t.Fatalf("label %q not found in %s", label, spec.Name)
		}
		cm[o.Key] = class
	}
	return cm
}

func TestResultDerivedMetrics(t *testing.T) {
	cfg := DefaultConfig("m", Homogeneous(mem.DDR3), PolicyFixed)
	sys, err := New(cfg, []ProcSpec{{App: workload.Sift(), Input: workload.Ref}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(50_000, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.AggregateIPC() <= 0 || res.AggregateIPC() > float64(cfg.Core.Width) {
		t.Errorf("aggregate IPC = %v", res.AggregateIPC())
	}
	if res.CoreEnergyJ() <= 0 {
		t.Error("core energy missing")
	}
	if res.SystemEnergyJ() != res.CoreEnergyJ()+res.MemEnergyJ() {
		t.Error("system energy != core + memory")
	}
	if res.SystemTime() != res.Elapsed {
		t.Error("system time mismatch")
	}
	c := res.Cores[0]
	if c.TLBHitRate <= 0 || c.TLBHitRate > 1 {
		t.Errorf("TLB hit rate = %v", c.TLBHitRate)
	}
	if got := res.OS.Faults; got == 0 {
		t.Error("no page faults recorded")
	}
}

func TestPolicyKindStrings(t *testing.T) {
	for p, want := range map[PolicyKind]string{
		PolicyFixed: "fixed", PolicyAppLevel: "heter-app",
		PolicyMOCA: "moca", PolicyMigrate: "migrate",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
	if PolicyKind(99).String() != "PolicyKind(99)" {
		t.Error("unknown policy string")
	}
	if Config1.String() != "config1" {
		t.Error("heter config string")
	}
}

func TestSystemAccessors(t *testing.T) {
	cfg := DefaultConfig("a", Homogeneous(mem.DDR3), PolicyFixed)
	sys, err := New(cfg, []ProcSpec{{App: workload.Sift(), Input: workload.Ref}})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Config().Name != "a" {
		t.Error("Config accessor")
	}
	if sys.OS() == nil || sys.App(0) == nil || sys.Allocator(0) == nil {
		t.Error("nil accessor")
	}
	if sys.App(0).Spec.Name != "sift" {
		t.Error("wrong app")
	}
	if sys.SuggestedWarmup() <= sys.App(0).InitInstructions() {
		t.Error("warmup does not cover init")
	}
}
