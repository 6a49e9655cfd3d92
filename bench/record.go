package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"moca/internal/sim"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one workload run measured.
type record struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics are the end-to-end metrics BENCHMARK.json bounds.
	Metrics map[string]metric `json:"metrics"`
	// Detail holds the workload's own end-to-end numbers (for example
	// served hit and miss latency), reported but not bounded.
	Detail map[string]metric `json:"detail"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]metric `json:"layers,omitempty"`
	// Model holds statistics of the modelled machine, which depend only
	// on the inputs: two runs with one seed must agree exactly.
	Model  map[string]float64 `json:"model"`
	Counts map[string]uint64  `json:"counts"`
	Host   host               `json:"host"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics in BENCHMARK.json order. Every
// workload reports all of them; what an "op" is differs per workload (see
// README.md). Times are in reference time (see refkernel.go); their
// wall-time equivalents are details.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ref_ms_p50", "ms"},
	{"ops_per_ref_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// cpuLayers are the buckets CPU profile samples fold into (see layerOf).
var cpuLayers = []string{
	"event", "mem", "cpu", "cache", "vm", "workload", "sim", "alloc", "trace",
	"core", "exp", "wire", "json", "gc", "runtime", "other",
}

// perLayer lists the per-layer metrics in BENCHMARK.json order. A workload
// that does not exercise a layer reports 0 for it.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_frac", "ratio"})
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"setup." + l + ".cpu_frac", "ratio"})
	}
	return append(defs,
		metricDef{"sim.new_ms", "ms/op"},
		metricDef{"sim.run_ms", "ms/op"},
		metricDef{"sim.op_ms_p75", "ms/op"},
		metricDef{"sim.host_ns_per_event", "ns/event"},
		metricDef{"model.events_per_kinstr", "events/kinstr"},
		metricDef{"trace.decode_ns_per_item", "ns/item"},
		metricDef{"trace.decode_frac", "ratio"},
		metricDef{"trace.items_per_kinstr", "items/kinstr"},
		metricDef{"trace.encode_s", "s/trace"},
		metricDef{"trace.bytes_per_item", "B/item"},
		metricDef{"core.instrument_ms", "ms/app"},
		metricDef{"exp.simulated", "count"},
		metricDef{"exp.profiled", "count"},
		metricDef{"exp.disk_hits", "count"},
		metricDef{"exp.memory_hits", "count"},
		metricDef{"exp.sim_busy_frac", "ratio"},
		metricDef{"exp.disk_hit_us", "us/hit"},
		metricDef{"exp.cache_hits", "count"},
		metricDef{"exp.cache_misses", "count"},
		metricDef{"exp.cache_writes", "count"},
		metricDef{"wire.submit_us_p50", "us/req"},
		metricDef{"wire.wait_us_p50", "us/req"},
		metricDef{"wire.bytes_per_req", "B/req"},
		metricDef{"server.service_us_p50", "us/req"},
		metricDef{"go.alloc_kb_per_op", "KiB/op"},
		metricDef{"go.gc_per_op", "count/op"},
		metricDef{"trace_overhead_frac", "ratio"},
		metricDef{"model.ipc", "instr/cycle"},
		metricDef{"model.llc_mpki", "MPKI"},
		metricDef{"model.amat_ns", "ns/access"},
		metricDef{"model.row_hit_frac", "ratio"},
	)
}()

// detailUnits gives the unit of each workload-specific number.
var detailUnits = map[string]string{
	"setup_wall_s":   "s",
	"op_wall_ms_p50": "ms",
	"op_wall_ms_p90": "ms",
	"ops_per_wall_s": "1/s",
	"host_speed":     "ratio",
	"minstr_per_s":   "Minstr/s",
	"hit_ms_p50":     "ms",
	"hit_ms_p99":     "ms",
	"miss_ms_p50":    "ms",
	"miss_ms_p95":    "ms",
	"fail_frac":      "ratio",
}

// phase is what one timed phase of a workload measured.
type phase struct {
	lat       []float64 // per-op latency, ms
	ref       []float64 // per-op latency in reference time, ms
	speed     []float64 // host speed each op was charged at
	wall      time.Duration
	refSecs   float64 // wall in reference time, s
	rss       float64 // peak RSS in MiB at a fixed amount of work; 0 reads it after the phase
	attempted int
	failed    int
	// detail and layers carry the workload's own numbers; layers are
	// only filled in traced phases.
	detail map[string]float64
	layers map[string]float64
	// In a traced phase, offAlloc and offGC count the bytes allocated and
	// the collections run during offClock work, which go.alloc_kb_per_op
	// and go.gc_per_op leave out.
	traced   bool
	offAlloc uint64
	offGC    uint32
}

func newPhase(tr *tracer) *phase {
	return &phase{layers: map[string]float64{}, traced: tr != nil}
}

// add records one op that took msec milliseconds while the host ran at
// speed.
func (p *phase) add(msec, speed float64) {
	p.lat = append(p.lat, msec)
	p.ref = append(p.ref, msec*speed)
	p.speed = append(p.speed, speed)
}

// offClock runs fn, the benchmark's own work between timed ops (oracle
// checks and speed measurements), so that no per-layer metric counts it:
// unprofiled keeps its CPU samples out of the profile's shares, and in a
// traced phase its allocations and collections are subtracted.
func (p *phase) offClock(ctx context.Context, fn func()) {
	var m0, m1 runtime.MemStats
	if p.traced {
		runtime.ReadMemStats(&m0)
	}
	unprofiled(ctx, fn)
	if p.traced {
		runtime.ReadMemStats(&m1)
		p.offAlloc += m1.TotalAlloc - m0.TotalAlloc
		p.offGC += m1.NumGC - m0.NumGC
	}
}

// state is one set-up instance of a workload.
type state interface {
	// setup does the cold work the timed ops rely on and computes the
	// references the oracle compares against.
	setup(ctx context.Context, tr *tracer) error
	// measure runs timed ops until the deadline, then the oracle checks
	// that are kept off the clock.
	measure(ctx context.Context, until time.Time, tr *tracer) (*phase, error)
	// digest is the reference output: every set-up must reproduce it.
	digest() []byte
	// setupLayers reports per-layer numbers of the last set-up.
	setupLayers() map[string]float64
	// model returns the reference results the model.* statistics cover.
	model() []*sim.Result
	counts() map[string]uint64
	close()
}

// A run sets the workload up at least minSetups times, and more while the
// set-ups so far took under setupBudget, up to maxSetups; setup_s is the
// median. A set-up of a fraction of a second is then timed about fifteen
// times, which keeps one slow moment on the host from setting the median.
// Like op costs, each set-up is charged in reference time, at the mean of
// the host speeds measured before and after it.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 3 * time.Second
)

// runWorkload sets the workload up (once when traced or at toy scale),
// runs the timed phase, and in a traced run a second, traced phase.
func runWorkload(ctx context.Context, w scenario, opts options, logw io.Writer) (*record, error) {
	env := &env{seed: opts.seed, scale: opts.scale, work: opts.work, corrupt: opts.corrupt, log: logw, kern: newRefKernel()}
	var (
		st        state
		setups    []float64 // reference time, s
		walls     []float64
		spent     time.Duration
		setupOK   = true
		setupProf []byte
		tr        *tracer
	)
	if opts.trace {
		tr = newTracer()
	}
	once := opts.trace || opts.scale.toy
	for i := 0; i == 0 || !once && i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		s := w.new(env, i)
		var stop func() []byte
		if tr != nil {
			stop = startProfile()
		}
		var speed0, speed1 float64
		unprofiled(ctx, func() { speed0 = env.kern.measure() })
		t0 := time.Now()
		err := s.setup(ctx, tr)
		d := time.Since(t0)
		unprofiled(ctx, func() { speed1 = env.kern.measure() })
		spent += d
		setups = append(setups, d.Seconds()*(speed0+speed1)/2)
		walls = append(walls, d.Seconds())
		if stop != nil {
			setupProf = stop()
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		if st != nil {
			if string(st.digest()) != string(s.digest()) {
				fmt.Fprintf(logw, "bench: %s: set-up %d produced a different reference\n", w.name, i)
				setupOK = false
			}
			st.close()
		}
		st = s
	}
	defer st.close()

	ph, err := st.measure(ctx, time.Now().Add(opts.seconds), nil)
	if err != nil {
		return nil, err
	}
	rss := ph.rss
	if rss == 0 {
		// Read before the traced phase adds its spans.
		if rss, err = peakRSS(); err != nil {
			return nil, err
		}
	}
	rec := &record{
		Workload:  w.name,
		Seed:      opts.seed,
		Traced:    opts.trace,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   map[string]metric{},
		Detail:    map[string]metric{},
		Model:     modelStats(st.model()),
		Counts:    st.counts(),
	}
	rec.Counts["setup_reps"] = uint64(len(setups))
	rec.Counts["seconds"] = uint64(opts.seconds / time.Second)

	var layers map[string]float64
	if opts.trace {
		layers = map[string]float64{}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		stop := startProfile()
		tph, err := st.measure(ctx, time.Now().Add(opts.seconds), tr)
		prof := stop()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, err
		}
		rec.Attempted += tph.attempted
		rec.Failed += tph.failed
		if err := foldInto(layers, "", prof); err != nil {
			return nil, err
		}
		if err := foldInto(layers, "setup.", setupProf); err != nil {
			return nil, err
		}
		ops := float64(len(tph.lat))
		layers["go.alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc-tph.offAlloc) / 1024 / ops
		layers["go.gc_per_op"] = float64(ms1.NumGC-ms0.NumGC-tph.offGC) / ops
		layers["trace_overhead_frac"] = percentile(tph.ref, 50)/percentile(ph.ref, 50) - 1
		for k, v := range st.setupLayers() {
			layers[k] = v
		}
		for k, v := range tph.layers {
			layers[k] = v
		}
		for k, v := range rec.Model {
			layers[k] = v
		}
		if err := tr.write(filepath.Join(opts.spans, w.name)); err != nil {
			return nil, err
		}
	}

	rec.Correct = setupOK && rec.Failed == 0
	e2e := map[string]float64{
		"setup_s":       percentile(setups, 50),
		"op_ref_ms_p50": percentile(ph.ref, 50),
		"ops_per_ref_s": float64(len(ph.lat)) / ph.refSecs,
		"peak_rss_mb":   rss,
	}
	for _, d := range endToEnd {
		rec.Metrics[d.name] = metric{e2e[d.name], d.unit}
	}
	for k, v := range ph.detail {
		rec.Detail[k] = metric{v, detailUnits[k]}
	}
	for k, v := range map[string]float64{
		"setup_wall_s":   percentile(walls, 50),
		"op_wall_ms_p50": percentile(ph.lat, 50),
		"op_wall_ms_p90": percentile(ph.lat, 90),
		"ops_per_wall_s": float64(len(ph.lat)) / ph.wall.Seconds(),
		"host_speed":     percentile(ph.speed, 50),
	} {
		rec.Detail[k] = metric{v, detailUnits[k]}
	}
	rec.Detail["fail_frac"] = metric{float64(rec.Failed) / float64(rec.Attempted), detailUnits["fail_frac"]}
	if layers != nil {
		rec.Layers = map[string]metric{}
		for _, d := range perLayer {
			rec.Layers[d.name] = metric{layers[d.name], d.unit}
		}
	}
	return rec, nil
}

// peakRSS returns this process's peak resident set in MiB: VmHWM from
// /proc/self/status. Unlike getrusage's maxrss, it starts afresh at exec,
// so it never reports the memory of whatever process forked this one.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for an empty sample).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// modelStats summarizes the modelled machine over a set of results:
// instructions per cycle, LLC misses per kilo-instruction, mean memory
// access time and row-buffer hit rate, each pooled over cores or channels.
func modelStats(results []*sim.Result) map[string]float64 {
	var instr, cycles, misses, requests, rowHits uint64
	var latency float64
	for _, r := range results {
		for _, c := range r.Cores {
			instr += c.CPU.Instructions
			cycles += c.CPU.Cycles
			misses += c.Hier.DemandMisses
		}
		for _, ch := range r.Channels {
			requests += ch.Stats.Requests()
			rowHits += ch.Stats.RowHits
			latency += float64(ch.Stats.TotalLatency)
		}
	}
	return map[string]float64{
		"model.ipc":          ratio(float64(instr), float64(cycles)),
		"model.llc_mpki":     ratio(float64(misses)*1000, float64(instr)),
		"model.amat_ns":      ratio(latency/1000, float64(requests)), // ps to ns
		"model.row_hit_frac": ratio(float64(rowHits), float64(requests)),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
