package moca_test

import (
	"bytes"
	"fmt"
	"testing"

	"moca"
)

func TestAppsAndMixes(t *testing.T) {
	apps := moca.Apps()
	if len(apps) != 10 {
		t.Fatalf("Apps() = %d, want 10", len(apps))
	}
	if _, ok := moca.AppByName("mcf"); !ok {
		t.Error("AppByName(mcf) failed")
	}
	if _, ok := moca.AppByName("nope"); ok {
		t.Error("AppByName(nope) succeeded")
	}
	if len(moca.WorkloadMixes()) != 10 {
		t.Error("WorkloadMixes() wrong length")
	}
	if _, ok := moca.MixByName("2L1B1N"); !ok {
		t.Error("MixByName failed")
	}
}

func TestAppByNameMustPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown app")
		}
	}()
	moca.AppByNameMust("doesnotexist")
}

func TestDeviceParams(t *testing.T) {
	for _, k := range []moca.MemoryKind{moca.DDR3, moca.HBM, moca.RLDRAM, moca.LPDDR2} {
		d := moca.Device(k)
		if err := d.Validate(); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
}

func TestDefaultThresholds(t *testing.T) {
	th := moca.DefaultThresholds()
	if th.LatMPKI != 1 || th.BWStallCycles != 20 {
		t.Errorf("thresholds = %+v", th)
	}
	if th.Classify(10, 50) != moca.LatencySensitive {
		t.Error("classification through the public API failed")
	}
}

func TestSystemConstructors(t *testing.T) {
	if mods := moca.Homogeneous(moca.DDR3); len(mods) != 1 || mods[0].Channels != 4 {
		t.Errorf("Homogeneous = %+v", mods)
	}
	if mods := moca.Heterogeneous(moca.Config1); len(mods) != 4 {
		t.Errorf("Heterogeneous = %+v", mods)
	}
	cfg := moca.DefaultSystem("x", moca.Homogeneous(moca.DDR3), moca.PolicyFixed)
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
}

func TestEndToEndPublicAPI(t *testing.T) {
	fw := moca.NewFramework()
	fw.ProfileWindow = 100_000
	ins, err := fw.Instrument(moca.AppByNameMust("disparity"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.Classes) == 0 {
		t.Fatal("no classification")
	}

	cfg := moca.DefaultSystem("moca", moca.Heterogeneous(moca.Config1), moca.PolicyMOCA)
	sys, err := moca.NewSystem(cfg, []moca.ProcSpec{ins.Proc(moca.PolicyMOCA, moca.Ref)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(sys.SuggestedWarmup(), 80_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgMemAccessTime() <= 0 || res.MemEDP() <= 0 {
		t.Errorf("degenerate result: %v / %v", res.AvgMemAccessTime(), res.MemEDP())
	}
	if got := res.PagesOnKind(); got[moca.RLDRAM] == 0 {
		t.Error("no pages on RLDRAM despite latency-sensitive objects")
	}
}

func TestRunConvenience(t *testing.T) {
	cfg := moca.DefaultSystem("ddr3", moca.Homogeneous(moca.DDR3), moca.PolicyFixed)
	res, err := moca.Run(cfg, moca.ProcSpec{App: moca.AppByNameMust("sift"), Input: moca.Ref})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalInstructions() < 300_000 {
		t.Errorf("retired %d", res.TotalInstructions())
	}
}

func TestCustomAppThroughPublicAPI(t *testing.T) {
	app := moca.AppSpec{
		Name:             "custom",
		ComputePerMemory: 10,
		Seed:             42,
		Objects: []moca.ObjectSpec{
			{Label: "graph", Site: 0x500000, SizeBytes: 2 << 20, Pattern: moca.PatternChase, Weight: 0.4},
			{Label: "scratch", Site: 0x500010, SizeBytes: 256 << 10, Pattern: moca.PatternResident, Weight: 0.2, HotBytes: 64 << 10},
		},
		StackWeight: 0.1, CodeWeight: 0.05,
	}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	fw := moca.NewFramework()
	fw.ProfileWindow = 80_000
	ins, err := fw.Instrument(app)
	if err != nil {
		t.Fatal(err)
	}
	var sawL bool
	for _, o := range ins.Profile.HeapObjects() {
		if o.Label == "graph" && o.Class == moca.LatencySensitive {
			sawL = true
		}
	}
	if !sawL {
		t.Error("custom chase object not classified latency-sensitive")
	}
}

// ExampleRun demonstrates the one-call simulation entry point.
func ExampleRun() {
	cfg := moca.DefaultSystem("quick", moca.Homogeneous(moca.DDR3), moca.PolicyFixed)
	res, err := moca.Run(cfg, moca.ProcSpec{App: moca.AppByNameMust("gcc"), Input: moca.Ref})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.MemRequests() > 0)
	// Output: true
}

func TestTraceReplayEquivalence(t *testing.T) {
	// A recorded trace replayed through the simulator must reproduce the
	// generator-driven run bit for bit.
	app := moca.AppByNameMust("sift")
	var buf bytes.Buffer
	// Stream items cover at least warmup+measure retired instructions
	// (compute batches expand to many instructions each).
	if _, err := moca.RecordTraceV2(&buf, app, moca.Ref, nil, 120_000, 0, 0); err != nil {
		t.Fatal(err)
	}

	run := func(stream moca.InstructionStream) *moca.Result {
		cfg := moca.DefaultSystem("ddr3", moca.Homogeneous(moca.DDR3), moca.PolicyFixed)
		sys, err := moca.NewSystem(cfg, []moca.ProcSpec{{
			App: app, Input: moca.Ref, Stream: stream,
		}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(40_000, 60_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	tr, err := moca.OpenTraceStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replayed := run(tr)
	native := run(nil)

	if replayed.Elapsed != native.Elapsed {
		t.Errorf("elapsed differs: replay %d vs native %d", replayed.Elapsed, native.Elapsed)
	}
	if replayed.AvgMemAccessTime() != native.AvgMemAccessTime() {
		t.Errorf("latency differs: replay %d vs native %d",
			replayed.AvgMemAccessTime(), native.AvgMemAccessTime())
	}
	if replayed.Cores[0].CPU != native.Cores[0].CPU {
		t.Errorf("core stats differ:\nreplay %+v\nnative %+v",
			replayed.Cores[0].CPU, native.Cores[0].CPU)
	}
	if tr.Err() != nil {
		t.Errorf("trace decode error: %v", tr.Err())
	}
}
