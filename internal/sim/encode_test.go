package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"moca/internal/heap"
	"moca/internal/mem"
	"moca/internal/trace"
	"moca/internal/workload"
)

// TestResultJSONRoundTrip: a Result must survive a disk round-trip with
// every derived metric intact, including the unexported energy
// accumulators behind MemEnergyJ/SystemEDP.
func TestResultJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed)
	cfg.Obs.Metrics = true
	res := runSingle(t, cfg, ProcSpec{App: workload.MCF(), Input: workload.Ref})

	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}

	if back.Name != res.Name || back.Policy != res.Policy || back.Elapsed != res.Elapsed {
		t.Errorf("identity fields diverged: %q/%q/%d vs %q/%q/%d",
			back.Name, back.Policy, back.Elapsed, res.Name, res.Policy, res.Elapsed)
	}
	if back.MemEnergyJ() != res.MemEnergyJ() || back.CoreEnergyJ() != res.CoreEnergyJ() {
		t.Errorf("energies diverged: mem %v vs %v, core %v vs %v",
			back.MemEnergyJ(), res.MemEnergyJ(), back.CoreEnergyJ(), res.CoreEnergyJ())
	}
	if back.MemEDP() != res.MemEDP() || back.SystemEDP() != res.SystemEDP() {
		t.Errorf("EDP diverged: mem %v vs %v, system %v vs %v",
			back.MemEDP(), res.MemEDP(), back.SystemEDP(), res.SystemEDP())
	}
	if back.AvgMemAccessTime() != res.AvgMemAccessTime() {
		t.Errorf("access time diverged: %v vs %v", back.AvgMemAccessTime(), res.AvgMemAccessTime())
	}
	if back.TotalInstructions() != res.TotalInstructions() {
		t.Errorf("instructions diverged: %v vs %v", back.TotalInstructions(), res.TotalInstructions())
	}
	if res.Obs == nil || back.Obs == nil {
		t.Fatal("obs snapshot lost in round trip")
	}
	a, _ := json.Marshal(res.Obs)
	b, _ := json.Marshal(back.Obs)
	if !bytes.Equal(a, b) {
		t.Error("obs snapshot diverged across the round trip")
	}
}

// TestRunContextCancellation: a canceled context stops the simulation loop
// promptly with ctx.Err instead of running the window to completion.
func TestRunContextCancellation(t *testing.T) {
	cfg := DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed)
	sys, err := New(cfg, []ProcSpec{{App: workload.MCF(), Input: workload.Ref}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.RunContext(ctx, sys.SuggestedWarmup(), testMeasure); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled run returned %v, want context.Canceled", err)
	}
}

// TestReplayDecodeErrorSurfaces: replaying a corrupt trace must fail with
// the decode error (quickly, via end-of-stream detection), not spin into
// the watchdog with no diagnostic.
func TestReplayDecodeErrorSurfaces(t *testing.T) {
	spec := workload.Tracking()
	scratch := heap.New(heap.Config{})
	app, err := workload.Instantiate(spec.ForInput(workload.Ref), scratch, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewBlockWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Record far too little for warmup+measure, then corrupt the tail so
	// the stream ends on a decode error rather than a clean EOF.
	if _, err := trace.Record(w, app.Stream(), 10_000); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] ^= 0x01 // the end frame's item total no longer matches

	rd, err := trace.Open(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed)
	sys, err := New(cfg, []ProcSpec{{App: spec, Input: workload.Ref, Stream: rd}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run(sys.SuggestedWarmup(), testMeasure)
	if err == nil {
		t.Fatal("corrupt replay succeeded")
	}
	if !strings.Contains(err.Error(), "decode") {
		t.Errorf("error does not carry the decode diagnosis: %v", err)
	}
}

// TestReplayShortTraceSurfaces: a clean-but-short trace reports the
// instruction shortfall instead of a bare watchdog timeout.
func TestReplayShortTraceSurfaces(t *testing.T) {
	spec := workload.Tracking()
	scratch := heap.New(heap.Config{})
	app, err := workload.Instantiate(spec.ForInput(workload.Ref), scratch, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewBlockWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Record(w, app.Stream(), 10_000); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed)
	sys, err := New(cfg, []ProcSpec{{App: spec, Input: workload.Ref, Stream: rd}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run(sys.SuggestedWarmup(), testMeasure)
	if err == nil {
		t.Fatal("short replay succeeded")
	}
	if !strings.Contains(err.Error(), "stream ended") {
		t.Errorf("error does not explain the short stream: %v", err)
	}
}
