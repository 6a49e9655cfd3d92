package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// toyRun runs one workload at toy scale, traced, with its first timed
// result corrupted.
func toyRun(t *testing.T, w scenario) *record {
	t.Helper()
	opts := options{
		seed:    7,
		seconds: 100 * time.Millisecond,
		trace:   true,
		spans:   t.TempDir(),
		work:    t.TempDir(),
		scale:   toyScale,
		corrupt: true,
	}
	rec, err := runWorkload(context.Background(), w, opts, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if _, err := os.Stat(filepath.Join(opts.spans, w.name, "spans.json")); err != nil {
		t.Errorf("%s: traced run wrote no spans: %v", w.name, err)
	}
	return rec
}

// TestWorkloads runs every workload at toy scale, traced, with the first
// timed result corrupted by one flipped byte. Each must emit every
// end-to-end and per-layer metric named in BENCHMARK.json with its unit,
// and its oracle must count exactly one failure: the corrupted result.
// Every other op passing is the fail_frac == 0 check.
func TestWorkloads(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rec := toyRun(t, w)
			for _, m := range bf.EndToEnd {
				got, ok := rec.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				} else if got.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}
			for _, m := range bf.PerLayer {
				if got, ok := rec.Layers[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if rec.Failed != 1 || rec.Correct {
				t.Errorf("%d of %d ops failed (correct=%v), want only the corrupted one", rec.Failed, rec.Attempted, rec.Correct)
			}
		})
	}
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the metrics and
// workloads the code emits, and checks that a drifted file is refused.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := bf.matchesCode(); err != nil {
		t.Fatal(err)
	}
	bf.PerLayer[len(bf.PerLayer)-1].Unit = "percent"
	if bf.matchesCode() == nil {
		t.Error("a per-layer unit that differs from the code's was accepted")
	}
}

// TestCompareRefusesMixedRuns checks that compare judges no workload whose
// runs differ in length and takes no traced record.
func TestCompareRefusesMixedRuns(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, recs ...*record) string {
		var buf bytes.Buffer
		for _, r := range recs {
			if err := writeJSONLine(&buf, r); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rec := func(seconds uint64, traced bool) *record {
		r := &record{Workload: "sim-mcf", Seed: 1, Traced: traced, Metrics: map[string]metric{}, Counts: map[string]uint64{"seconds": seconds}}
		for _, d := range endToEnd {
			r.Metrics[d.name] = metric{1, d.unit}
		}
		return r
	}
	var out bytes.Buffer
	a := write("a", rec(12, false), rec(12, false))
	b := write("b", rec(6, false), rec(6, false))
	if code := compareMain(bf, []string{a, b}, &out, io.Discard); code != 1 || !strings.Contains(out.String(), "not judged: runs of [6 12] s mixed") {
		t.Errorf("runs of 12 s against 6 s: exit %d, output\n%s", code, out.String())
	}
	if code := compareMain(bf, []string{a, write("t", rec(12, true))}, io.Discard, io.Discard); code != 2 {
		t.Errorf("traced record: exit %d, want 2", code)
	}
}

// TestQuartiles checks compare against values Python's
// statistics.quantiles(xs, n=4) and statistics.median give.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"moca/internal/wire/server.(*conn).serve":   "wire",
		"moca/internal/heap.(*Allocator).Alloc":     "core",
		"moca/internal/sim.(*System).RunContext":    "sim",
		"moca/internal/obs.(*Registry).Counter":     "other",
		"encoding/json.(*decodeState).object":       "json",
		"reflect.Value.Field":                       "json",
		"runtime.mallocgc":                          "gc",
		"runtime.scanobject":                        "gc",
		"runtime.memmove":                           "runtime",
		"syscall.Syscall":                           "runtime",
		"main.spin":                                 "other",
		"moca/internal/trace.(*BlockReader).decode": "trace",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// spin burns CPU in this package, so its samples fold into "other".
func spin(d time.Duration) uint64 {
	var x uint64
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestFoldProfile reads a real CPU profile of a busy loop and of JSON
// encoding run as offClock work, which must not be counted.
func TestFoldProfile(t *testing.T) {
	stop := startProfile()
	spin(300 * time.Millisecond)
	unprofiled(context.Background(), func() {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			if _, err := json.Marshal(map[string][]int{"a": {1, 2, 3}}); err != nil {
				t.Error(err)
			}
		}
	})
	shares, err := foldProfile(stop())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 || shares["other"] < 0.5 || shares["json"] != 0 {
		t.Errorf("shares %v: want them to sum to 1, mostly other, no json", shares)
	}
}

// TestFrameScanner follows frames split across writes at every offset.
func TestFrameScanner(t *testing.T) {
	// Two frames: type 0x02 with a 3-byte payload, then type 0x86 empty.
	stream := []byte{0, 0, 0, 4, 0x02, 'a', 'b', 'c', 0, 0, 0, 1, 0x86}
	for cut := 0; cut <= len(stream); cut++ {
		var f frameScanner
		var got []byte
		note := func(typ byte) { got = append(got, typ) }
		f.feed(stream[:cut], note)
		f.feed(stream[cut:], note)
		if string(got) != "\x02\x86" {
			t.Errorf("cut %d: frames %x, want 02 86", cut, got)
		}
	}
}

// TestRefKernel checks that the reference kernel keeps its event queue
// whole and measures a plausible host speed.
func TestRefKernel(t *testing.T) {
	k := newRefKernel()
	if speed := k.measure(); speed < 0.05 || speed > 20 {
		t.Errorf("measure() = %v, want a speed within 20x of the reference host's", speed)
	}
	if len(k.events) != kernelEvents {
		t.Fatalf("%d events pending, want %d", len(k.events), kernelEvents)
	}
	for i := 1; i < len(k.events); i++ {
		if k.events[(i-1)/2] > k.events[i] {
			t.Fatalf("event %d precedes its parent: not a min-heap", i)
		}
	}
}
