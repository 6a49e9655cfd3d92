package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"moca/internal/classify"
	"moca/internal/event"
	"moca/internal/heap"
	"moca/internal/mem"
	"moca/internal/obs"
	"moca/internal/trace"
	"moca/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

const goldenMeasure = 60_000

// goldenRecord pins the canonical metrics of one reference run. Integers
// must match bit-exactly; floats are derived from deterministic integer
// state and compared at near-machine precision.
type goldenRecord struct {
	System        string         `json:"system"`
	Policy        string         `json:"policy"`
	ElapsedPs     int64          `json:"elapsed_ps"`
	Instructions  uint64         `json:"instructions"`
	MemRequests   uint64         `json:"mem_requests"`
	MemAccessPs   int64          `json:"mem_access_time_ps"`
	IPC           []float64      `json:"ipc"`
	LLCMPKI       []float64      `json:"llc_mpki"`
	MemEDP        float64        `json:"mem_edp"`
	SystemEDP     float64        `json:"system_edp"`
	PagesByKind   map[string]int `json:"pages_by_kind"`
	FallbackPages uint64         `json:"fallback_pages"`
	Obs           *obs.Snapshot  `json:"obs"`
}

func goldenFrom(res *Result) goldenRecord {
	g := goldenRecord{
		System:        res.Name,
		Policy:        res.Policy,
		ElapsedPs:     int64(res.Elapsed),
		Instructions:  res.TotalInstructions(),
		MemRequests:   res.MemRequests(),
		MemAccessPs:   int64(res.AvgMemAccessTime()),
		MemEDP:        res.MemEDP(),
		SystemEDP:     res.SystemEDP(),
		PagesByKind:   map[string]int{},
		FallbackPages: res.OS.FallbackPages,
		Obs:           res.Obs,
	}
	for _, c := range res.Cores {
		g.IPC = append(g.IPC, c.IPC())
		g.LLCMPKI = append(g.LLCMPKI, c.LLCMPKI())
	}
	for kind, n := range res.PagesOnKind() {
		g.PagesByKind[kind.String()] = n
	}
	return g
}

// goldenCase is one reference run: a configuration, one process per core,
// and an explicit warm-up and measured window. traced cases also pin the
// SHA-256 of their run trace (testdata/golden/<name>.trace.sha256), so a
// changed same-timestamp event order fails even where every aggregate
// counter agrees.
type goldenCase struct {
	name    string
	cfg     Config
	procs   []ProcSpec
	warmup  uint64
	measure uint64
	traced  bool
}

// goldenCases are the reference configurations: the simplest homogeneous
// baseline and a full MOCA heterogeneous run with hand-built classes, then
// short multi-program runs covering every placement policy, several core
// counts, a shrunk L2 and a migration engine with a short epoch. The two
// long runs warm up for their apps' initialization plus 100k instructions.
func goldenCases(t testing.TB) []goldenCase {
	disparity := workload.Disparity()
	cm := classMapFor(t, disparity, map[string]classify.Class{
		"images":        classify.BandwidthSensitive,
		"disparity_map": classify.LatencySensitive,
		"kernel_buf":    classify.NonIntensive,
	})
	ref := func(spec workload.AppSpec) ProcSpec {
		return ProcSpec{App: spec, Input: workload.Ref}
	}
	classed := func(spec workload.AppSpec, class classify.Class) ProcSpec {
		return ProcSpec{App: spec, Input: workload.Ref, AppClass: class}
	}
	smallL2 := func(cfg Config) Config {
		cfg.CacheL2.SizeBytes /= 4
		return cfg
	}
	shortEpoch := func(cfg Config) Config {
		cfg.MigrationEpoch = 5 * event.Microsecond
		return cfg
	}
	return []goldenCase{
		{
			name:    "homogen-ddr3-mcf",
			cfg:     DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed),
			procs:   []ProcSpec{ref(workload.MCF())},
			warmup:  109_130,
			measure: goldenMeasure,
		},
		{
			name: "moca-config1-disparity",
			cfg:  DefaultConfig("moca", Heterogeneous(Config1), PolicyMOCA),
			procs: []ProcSpec{{
				App: disparity, Input: workload.Ref,
				Classes: cm, AppClass: classify.LatencySensitive,
			}},
			warmup:  107_125,
			measure: goldenMeasure,
		},
		{
			name:    "fixed-ddr3-1core",
			cfg:     DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed),
			procs:   []ProcSpec{ref(workload.GCC())},
			measure: 4000,
		},
		{
			name:    "fixed-ddr3-2core-smalll2",
			cfg:     smallL2(DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed)),
			procs:   []ProcSpec{ref(workload.GCC()), ref(workload.Libquantum())},
			warmup:  2000,
			measure: 3000,
		},
		{
			name: "fixed-hbm-4core",
			cfg:  DefaultConfig("homogen-hbm", Homogeneous(mem.HBM), PolicyFixed),
			procs: []ProcSpec{
				ref(workload.GCC()), ref(workload.Libquantum()),
				ref(workload.Disparity()), ref(workload.MCF()),
			},
			measure: 2500,
			traced:  true,
		},
		{
			name: "heterapp-config1-4core",
			cfg:  DefaultConfig("heter-app", Heterogeneous(Config1), PolicyAppLevel),
			procs: []ProcSpec{
				classed(workload.GCC(), classify.LatencySensitive),
				classed(workload.Libquantum(), classify.BandwidthSensitive),
				classed(workload.Disparity(), classify.NonIntensive),
				classed(workload.MCF(), classify.LatencySensitive),
			},
			warmup:  1000,
			measure: 2500,
			traced:  true,
		},
		{
			name: "heterapp-config2-2core-smalll2",
			cfg:  smallL2(DefaultConfig("heter-app", Heterogeneous(Config2), PolicyAppLevel)),
			procs: []ProcSpec{
				classed(workload.GCC(), classify.LatencySensitive),
				classed(workload.Libquantum(), classify.BandwidthSensitive),
			},
			measure: 3000,
		},
		{
			name:    "migrate-config1-2core",
			cfg:     shortEpoch(DefaultConfig("migrate", Heterogeneous(Config1), PolicyMigrate)),
			procs:   []ProcSpec{ref(workload.GCC()), ref(workload.Libquantum())},
			measure: 3000,
			traced:  true,
		},
	}
}

// TestGoldenRuns locks the canonical metrics of the reference runs against
// testdata/golden. A legitimate behavior change regenerates them with
//
//	go test ./internal/sim -run TestGoldenRuns -update
func TestGoldenRuns(t *testing.T) {
	for _, tc := range goldenCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Obs.Metrics = true
			if tc.traced {
				cfg.Obs.Trace = obs.NewTrace(0)
			}
			sys, err := New(cfg, tc.procs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(tc.warmup, tc.measure)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenFrom(res)
			path := filepath.Join("testdata", "golden", tc.name+".json")
			if tc.traced {
				checkTraceDigest(t, cfg.Obs.Trace, filepath.Join("testdata", "golden", tc.name+".trace.sha256"))
			}

			if *update {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				writeGolden(t, path, append(data, '\n'))
				return
			}

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			var want goldenRecord
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, got, want)
		})
	}
}

// writeGolden rewrites one golden file (the -update path).
func writeGolden(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

// checkTraceDigest compares the SHA-256 of tr's JSON-lines encoding (the
// bytes moca-sim -trace-out writes) against the hex digest stored at path.
func checkTraceDigest(t *testing.T, tr *obs.Trace, path string) {
	t.Helper()
	if tr.Len() == 0 {
		t.Fatal("run trace is empty: the digest would pin nothing")
	}
	h := sha256.New()
	if err := tr.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(h.Sum(nil))
	if *update {
		writeGolden(t, path, []byte(got+"\n"))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if want := string(bytes.TrimSpace(data)); got != want {
		t.Errorf("run trace digest: got %s, want %s (%d events, %d dropped)", got, want, tr.Len(), tr.Dropped())
	}
}

func compareGolden(t *testing.T, got, want goldenRecord) {
	t.Helper()
	if got.System != want.System || got.Policy != want.Policy {
		t.Errorf("identity: got %s/%s, want %s/%s", got.System, got.Policy, want.System, want.Policy)
	}
	if got.ElapsedPs != want.ElapsedPs {
		t.Errorf("elapsed: got %d, want %d", got.ElapsedPs, want.ElapsedPs)
	}
	if got.Instructions != want.Instructions {
		t.Errorf("instructions: got %d, want %d", got.Instructions, want.Instructions)
	}
	if got.MemRequests != want.MemRequests {
		t.Errorf("mem requests: got %d, want %d", got.MemRequests, want.MemRequests)
	}
	if got.MemAccessPs != want.MemAccessPs {
		t.Errorf("mem access time: got %d, want %d", got.MemAccessPs, want.MemAccessPs)
	}
	if got.FallbackPages != want.FallbackPages {
		t.Errorf("fallback pages: got %d, want %d", got.FallbackPages, want.FallbackPages)
	}
	floatsEq := func(name string, g, w []float64) {
		if len(g) != len(w) {
			t.Errorf("%s: %d cores, want %d", name, len(g), len(w))
			return
		}
		for i := range g {
			if !closeEnough(g[i], w[i]) {
				t.Errorf("%s[%d]: got %v, want %v", name, i, g[i], w[i])
			}
		}
	}
	floatsEq("ipc", got.IPC, want.IPC)
	floatsEq("llc_mpki", got.LLCMPKI, want.LLCMPKI)
	if !closeEnough(got.MemEDP, want.MemEDP) {
		t.Errorf("mem EDP: got %v, want %v", got.MemEDP, want.MemEDP)
	}
	if !closeEnough(got.SystemEDP, want.SystemEDP) {
		t.Errorf("system EDP: got %v, want %v", got.SystemEDP, want.SystemEDP)
	}
	if len(got.PagesByKind) != len(want.PagesByKind) {
		t.Errorf("pages by kind: got %v, want %v", got.PagesByKind, want.PagesByKind)
	} else {
		for kind, n := range want.PagesByKind {
			if got.PagesByKind[kind] != n {
				t.Errorf("pages on %s: got %d, want %d", kind, got.PagesByKind[kind], n)
			}
		}
	}
	if !got.Obs.Equal(want.Obs) {
		t.Errorf("obs snapshot diverged:\ngot  %s\nwant %s", mustJSON(got.Obs), mustJSON(want.Obs))
	}
}

// closeEnough compares floats derived from deterministic integer state:
// only formatting-level noise is tolerated, not behavioral drift.
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("<%v>", err)
	}
	return string(data)
}

// TestDeterminismWithReplay runs the same configuration twice directly and
// once more through a recorded-trace replay: all three must agree
// bit-exactly, including the observability snapshots.
func TestDeterminismWithReplay(t *testing.T) {
	spec := workload.Tracking()
	baseProc := ProcSpec{App: spec, Input: workload.Ref}
	newCfg := func() Config {
		cfg := DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed)
		cfg.Obs.Metrics = true
		return cfg
	}
	run := func(proc ProcSpec) (*Result, uint64) {
		sys, err := New(newCfg(), []ProcSpec{proc})
		if err != nil {
			t.Fatal(err)
		}
		warm := sys.SuggestedWarmup()
		res, err := sys.Run(warm, goldenMeasure)
		if err != nil {
			t.Fatal(err)
		}
		return res, warm
	}
	a, warm := run(baseProc)
	b, _ := run(baseProc)

	// Record the app's generator stream from a fresh instance (same spec,
	// heap config, and core seed → identical sequence), then replay it.
	// Slack covers in-flight fetches past the final quota crossing.
	scratch := heap.New(heap.Config{NamingDepth: baseProc.NamingDepth, Classes: baseProc.Classes})
	app, err := workload.Instantiate(spec.ForInput(workload.Ref), scratch, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewBlockWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Record(w, app.Stream(), warm+goldenMeasure+50_000); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replayProc := baseProc
	replayProc.Stream = rd
	c, _ := run(replayProc)

	for _, pair := range []struct {
		label string
		other *Result
	}{{"rerun", b}, {"replay", c}} {
		o := pair.other
		if a.Elapsed != o.Elapsed {
			t.Errorf("%s: elapsed %d != %d", pair.label, o.Elapsed, a.Elapsed)
		}
		if a.Cores[0].CPU != o.Cores[0].CPU {
			t.Errorf("%s: core stats differ:\n%+v\n%+v", pair.label, o.Cores[0].CPU, a.Cores[0].CPU)
		}
		if a.AvgMemAccessTime() != o.AvgMemAccessTime() {
			t.Errorf("%s: mem access time %d != %d", pair.label, o.AvgMemAccessTime(), a.AvgMemAccessTime())
		}
		if a.MemRequests() != o.MemRequests() {
			t.Errorf("%s: mem requests %d != %d", pair.label, o.MemRequests(), a.MemRequests())
		}
		if !a.Obs.Equal(o.Obs) {
			t.Errorf("%s: obs snapshots diverged:\na: %s\n%s: %s",
				pair.label, mustJSON(a.Obs), pair.label, mustJSON(o.Obs))
		}
	}

	// The snapshots must also serialize byte-identically (the property the
	// golden files and any external diffing rely on).
	ja, jb := mustJSON(a.Obs), mustJSON(b.Obs)
	if ja != jb {
		t.Errorf("snapshot JSON not byte-identical:\n%s\n%s", ja, jb)
	}
}
