package sim

import (
	"bytes"
	"testing"

	"moca/internal/heap"
	"moca/internal/mem"
	"moca/internal/trace"
	"moca/internal/workload"
)

// TestTraceV2ReplayByteIdentical is the replay-parity acceptance test: a
// v2 recording of an app's generator stream must replay to the Result
// JSON of the native generator run, and a v2 reader resumed at a
// mid-trace block boundary must match a whole-trace reader drained to the
// same item, byte for byte. The v2 path exercises block framing, the
// batch-refill hot path, and positioned reopen — none of which may
// perturb simulation output.
func TestTraceV2ReplayByteIdentical(t *testing.T) {
	spec := workload.Tracking()
	baseProc := ProcSpec{App: spec, Input: workload.Ref}
	newCfg := func() Config {
		cfg := DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed)
		cfg.Obs.Metrics = true
		return cfg
	}
	// run replays stream, or runs the app's own generator when it is nil.
	run := func(stream trace.ReplayStream, warmup uint64) []byte {
		proc := baseProc
		if stream != nil {
			proc.Stream = stream
		}
		sys, err := New(newCfg(), []ProcSpec{proc})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(warmup, goldenMeasure)
		if err != nil {
			t.Fatal(err)
		}
		if stream != nil {
			if err := stream.Err(); err != nil {
				t.Fatalf("stream error after replay: %v", err)
			}
		}
		raw, err := res.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	probe, err := New(newCfg(), []ProcSpec{baseProc})
	if err != nil {
		t.Fatal(err)
	}
	warm := probe.SuggestedWarmup()

	// Record with small blocks so the corpus spans many frames. Slack
	// covers in-flight fetches past the final quota crossing.
	scratch := heap.New(heap.Config{NamingDepth: baseProc.NamingDepth, Classes: baseProc.Classes})
	app, err := workload.Instantiate(spec.ForInput(workload.Ref), scratch, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := warm + goldenMeasure + 50_000
	var v2 bytes.Buffer
	w2, err := trace.NewBlockWriterSize(&v2, 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := trace.Record(w2, app.Stream(), total); err != nil || n != total {
		t.Fatalf("record: %d items, %v; want %d", n, err, total)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// Whole-trace parity with the generator the trace was recorded from.
	want := run(nil, warm)
	r2, err := trace.Open(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := run(r2, warm); !bytes.Equal(got, want) {
		t.Errorf("v2 replay result JSON diverges from the native run:\nv2     %s\nnative %s", got, want)
	}

	// Resume parity: reopen the v2 trace at the first block boundary past
	// item 10000 — without decoding the prefix — and compare against a
	// whole-trace reader drained item by item to the same point. Both see
	// the identical suffix, so both simulations must serialize identically.
	sc, err := trace.NewBlockScanner(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var pos trace.Position
	for sc.Scan() {
		if sc.NextPos().Seq >= 10_000 {
			pos = sc.NextPos()
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if pos.IsZero() {
		t.Fatal("no block boundary past item 10000")
	}

	rd, err := trace.Open(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < pos.Seq; i++ {
		if _, ok := rd.Next(); !ok {
			t.Fatalf("trace ends at item %d draining to %d", i, pos.Seq)
		}
	}
	wantResumed := run(rd, warm)
	br, err := trace.OpenBlockReaderAt(bytes.NewReader(v2.Bytes()), pos)
	if err != nil {
		t.Fatal(err)
	}
	if got := run(br, warm); !bytes.Equal(got, wantResumed) {
		t.Errorf("resumed replay (from %+v) diverges from drained replay:\nresumed %s\ndrained %s", pos, got, wantResumed)
	}
}
