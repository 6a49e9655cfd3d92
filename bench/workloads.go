package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"moca"
	"moca/internal/core"
	"moca/internal/mem"
	"moca/internal/sim"
	"moca/internal/trace"
	"moca/internal/workload"
)

// env is what every workload instance shares.
type env struct {
	seed  uint64
	scale scale
	work  string // temporary directory, removed when the run ends
	// corrupt flips one byte of the next timed result the oracle checks,
	// once (see options.corrupt).
	corrupt bool
	log     io.Writer
	kern    *refKernel
}

// scale fixes the work per op. fullScale is the benchmark; toyScale lets
// the tests run every workload in seconds.
type scale struct {
	toy            bool
	mcfMeasure     uint64 // sim-mcf measured instructions
	mixMeasure     uint64 // sim-mix4 measured instructions per core
	replayMeasure  uint64 // replay-v2 measured instructions
	sweepWindow    uint64 // sweep Measure and ProfileWindow
	servedMeasure  uint64 // served server default Measure
	servedWindow   uint64 // served ProfileWindow
	servedRequests int    // requests per connection per round
}

var fullScale = scale{
	mcfMeasure:     1_000_000,
	mixMeasure:     300_000,
	replayMeasure:  4_000_000,
	sweepWindow:    100_000,
	servedMeasure:  50_000,
	servedWindow:   100_000,
	servedRequests: 5_000,
}

var toyScale = scale{
	toy:            true,
	mcfMeasure:     20_000,
	mixMeasure:     10_000,
	replayMeasure:  50_000,
	sweepWindow:    5_000,
	servedMeasure:  5_000,
	servedWindow:   10_000,
	servedRequests: 300,
}

// scenario is one benchmark workload. new returns a fresh instance (rep
// counts the set-ups of one run), so set-up can be repeated and timed.
type scenario struct {
	name string
	new  func(e *env, rep int) state
}

// workloads are listed in BENCHMARK.json order; README.md says why each
// was chosen.
var workloads = []scenario{
	{"sim-mcf", func(e *env, _ int) state { return &simMCF{env: e} }},
	{"sim-mix4", func(e *env, _ int) state { return &simMix{env: e} }},
	{"replay-v2", func(e *env, _ int) state { return &replay{env: e} }},
	{"sweep", func(e *env, rep int) state { return &sweep{env: e, rep: rep} }},
	{"served", func(e *env, rep int) state { return &served{env: e, rep: rep} }},
}

func workloadByName(name string) (scenario, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return scenario{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// salted returns the suite application with the run's seed mixed into its
// generator seed. Seed 0 keeps the paper's inputs.
func (e *env) salted(name string) (workload.AppSpec, error) {
	app, ok := workload.ByName(name)
	if !ok {
		return app, fmt.Errorf("unknown app %q", name)
	}
	if e.seed != 0 {
		app.Seed ^= splitmix64(e.seed)
	}
	return app, nil
}

// splitmix64 spreads small seeds over all 64 bits.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// opFunc runs one timed op. It returns the op's output lazily, so that
// building what the oracle compares stays off the clock.
type opFunc func(ctx context.Context, tr *tracer, parent int64) (output func() ([]byte, error), err error)

// loop runs op back to back until the deadline, at least once, timing
// each call, and compares each output with want. The phase's wall time is
// the time spent in ops, so the oracle's work and the speed measurements
// count neither there nor, being offClock work, in the per-layer metrics.
func (e *env) loop(ctx context.Context, until time.Time, tr *tracer, want []byte, op opFunc) *phase {
	p := newPhase(tr)
	for i := 0; i == 0 || time.Now().Before(until); i++ {
		var speed0 float64
		p.offClock(ctx, func() { speed0 = e.kern.speed() })
		id := tr.newID()
		t0 := time.Now()
		out, err := op(ctx, tr, id)
		t1 := time.Now()
		tr.record(id, 0, "op", fmt.Sprint(i), t0, t1)
		p.offClock(ctx, func() {
			speed := (speed0 + e.kern.speed()) / 2
			p.add(ms(t1.Sub(t0)), speed)
			p.refSecs += t1.Sub(t0).Seconds() * speed
			var got []byte
			if err == nil {
				got, err = out()
			}
			if err == nil && e.corrupt {
				got, e.corrupt = flipByte(got), false
			}
			if err == nil && !bytes.Equal(got, want) {
				err = fmt.Errorf("op %d: output differs from the reference", i)
			}
		})
		p.wall += t1.Sub(t0)
		p.attempted++
		if err != nil {
			p.failed++
			fmt.Fprintln(e.log, "bench:", err)
		}
	}
	return p
}

// flipByte returns a copy of b with one byte changed.
func flipByte(b []byte) []byte {
	c := append([]byte(nil), b...)
	if len(c) > 0 {
		c[len(c)/2] ^= 0x20
	}
	return c
}

// simOp builds a system, runs it and encodes its result, recording spans
// for each step. A traced op also turns on the metrics registry so events
// can be counted; the snapshot is dropped before encoding, so the output
// must still match the untraced reference.
func simOp(ctx context.Context, tr *tracer, parent int64, cfg sim.Config, procs []sim.ProcSpec, measure uint64, layers *simLayers) (func() ([]byte, error), error) {
	if tr != nil {
		cfg.Obs.Metrics = true
	}
	t0 := time.Now()
	sys, err := sim.New(cfg, procs)
	t1 := time.Now()
	tr.record(tr.newID(), parent, "sim.New", "", t0, t1)
	if err != nil {
		return nil, err
	}
	warm := sys.SuggestedWarmup()
	res, err := sys.RunContext(ctx, warm, measure)
	t2 := time.Now()
	tr.record(tr.newID(), parent, "sim.RunContext", "", t1, t2)
	if err != nil {
		return nil, err
	}
	if layers != nil && tr != nil {
		layers.add(res, t1.Sub(t0), t2.Sub(t1), warm, measure)
	}
	res.Obs = nil
	data, err := res.MarshalJSON()
	tr.record(tr.newID(), parent, "sim.Result.MarshalJSON", "", t2, time.Now())
	return func() ([]byte, error) { return data, err }, err
}

// simLayers accumulates the sim.* per-layer numbers of a traced phase.
type simLayers struct {
	newMs, runMs, opMs []float64
	events, measured   float64 // measured-window events and instructions
	hostNsPerEvent     []float64
}

func (l *simLayers) add(res *sim.Result, newD, runD time.Duration, warm, measure uint64) {
	l.newMs = append(l.newMs, ms(newD))
	l.runMs = append(l.runMs, ms(runD))
	l.opMs = append(l.opMs, ms(newD+runD))
	events := float64(res.Obs.Counters["event.executed"])
	instr := float64(res.TotalInstructions())
	l.events += events
	l.measured += instr
	// The registry covers only the measured window; assume warm-up runs
	// at the same events per instruction to charge the whole run.
	total := float64(len(res.Cores)) * float64(warm+measure)
	if perInstr := ratio(events, instr); perInstr > 0 {
		l.hostNsPerEvent = append(l.hostNsPerEvent, float64(runD)/(perInstr*total))
	}
}

func (l *simLayers) report(into map[string]float64) {
	into["sim.new_ms"] = percentile(l.newMs, 50)
	into["sim.run_ms"] = percentile(l.runMs, 50)
	into["sim.op_ms_p75"] = percentile(l.opMs, 75)
	into["sim.host_ns_per_event"] = percentile(l.hostNsPerEvent, 50)
	into["model.events_per_kinstr"] = ratio(l.events*1000, l.measured)
}

// minstrPerS is simulated instructions (warm-up plus measured, all cores)
// per host second of a median op.
func minstrPerS(instrPerOp float64, lat []float64) float64 {
	return instrPerOp / (percentile(lat, 50) / 1000) / 1e6
}

// simMCF: a fresh single-core DDR3 mcf system per op.
type simMCF struct {
	*env
	procs []sim.ProcSpec
	ref   []byte
	res   *sim.Result
	warm  uint64
}

func (s *simMCF) config() sim.Config {
	return sim.DefaultConfig("homogen-ddr3", sim.Homogeneous(mem.DDR3), sim.PolicyFixed)
}

func (s *simMCF) setup(ctx context.Context, _ *tracer) error {
	app, err := s.salted("mcf")
	if err != nil {
		return err
	}
	s.procs = []sim.ProcSpec{{App: app, Input: workload.Ref}}
	s.res, s.ref, s.warm, err = reference(ctx, s.config(), s.procs, s.scale.mcfMeasure)
	return err
}

func (s *simMCF) measure(ctx context.Context, until time.Time, tr *tracer) (*phase, error) {
	var sl simLayers
	p := s.loop(ctx, until, tr, s.ref, func(ctx context.Context, tr *tracer, parent int64) (func() ([]byte, error), error) {
		return simOp(ctx, tr, parent, s.config(), s.procs, s.scale.mcfMeasure, &sl)
	})
	p.detail = map[string]float64{"minstr_per_s": minstrPerS(float64(s.warm+s.scale.mcfMeasure), p.lat)}
	sl.report(p.layers)
	return p, nil
}

func (s *simMCF) digest() []byte                  { return s.ref }
func (s *simMCF) setupLayers() map[string]float64 { return nil }
func (s *simMCF) model() []*sim.Result            { return []*sim.Result{s.res} }
func (s *simMCF) counts() map[string]uint64 {
	return map[string]uint64{"measure": s.scale.mcfMeasure, "warmup": s.warm}
}
func (s *simMCF) close() {}

// reference runs the generator-driven system once, untimed, and returns
// its result, its encoding and the warm-up the system chose.
func reference(ctx context.Context, cfg sim.Config, procs []sim.ProcSpec, measure uint64) (*sim.Result, []byte, uint64, error) {
	sys, err := sim.New(cfg, procs)
	if err != nil {
		return nil, nil, 0, err
	}
	warm := sys.SuggestedWarmup()
	res, err := sys.RunContext(ctx, warm, measure)
	if err != nil {
		return nil, nil, 0, err
	}
	data, err := res.MarshalJSON()
	return res, data, warm, err
}

// simMix: the 2L1B1N mix on the Config1 heterogeneous system under MOCA
// placement, profiled in set-up.
type simMix struct {
	*env
	procs      []sim.ProcSpec
	ref        []byte
	res        *sim.Result
	warm       uint64
	instrument []float64 // ms per app
}

// mixApps is the 2L1B1N workload set: two latency-sensitive, one
// bandwidth-sensitive and one non-intensive application.
var mixApps = []string{"mcf", "milc", "lbm", "gcc"}

func (s *simMix) config() sim.Config {
	return sim.DefaultConfig("moca", sim.Heterogeneous(sim.Config1), sim.PolicyMOCA)
}

func (s *simMix) setup(ctx context.Context, tr *tracer) error {
	fw := core.NewFramework()
	s.procs, s.instrument = nil, nil
	for _, name := range mixApps {
		app, err := s.salted(name)
		if err != nil {
			return err
		}
		t0 := time.Now()
		ins, err := fw.Instrument(app)
		t1 := time.Now()
		tr.record(tr.newID(), 0, "core.Framework.Instrument", name, t0, t1)
		if err != nil {
			return err
		}
		s.instrument = append(s.instrument, ms(t1.Sub(t0)))
		s.procs = append(s.procs, ins.Proc(sim.PolicyMOCA, workload.Ref))
	}
	var err error
	s.res, s.ref, s.warm, err = reference(ctx, s.config(), s.procs, s.scale.mixMeasure)
	return err
}

func (s *simMix) measure(ctx context.Context, until time.Time, tr *tracer) (*phase, error) {
	var sl simLayers
	p := s.loop(ctx, until, tr, s.ref, func(ctx context.Context, tr *tracer, parent int64) (func() ([]byte, error), error) {
		return simOp(ctx, tr, parent, s.config(), s.procs, s.scale.mixMeasure, &sl)
	})
	p.detail = map[string]float64{"minstr_per_s": minstrPerS(float64(len(mixApps))*float64(s.warm+s.scale.mixMeasure), p.lat)}
	sl.report(p.layers)
	return p, nil
}

func (s *simMix) digest() []byte { return s.ref }
func (s *simMix) setupLayers() map[string]float64 {
	return map[string]float64{"core.instrument_ms": percentile(s.instrument, 50)}
}
func (s *simMix) model() []*sim.Result { return []*sim.Result{s.res} }
func (s *simMix) counts() map[string]uint64 {
	return map[string]uint64{"measure_per_core": s.scale.mixMeasure, "warmup": s.warm, "cores": uint64(len(mixApps)), "profile_window": core.NewFramework().ProfileWindow}
}
func (s *simMix) close() {}

// replay: sift recorded once in set-up to a v2 trace file, replayed per op.
type replay struct {
	*env
	app     workload.AppSpec
	path    string
	ref     []byte
	res     *sim.Result
	warm    uint64
	items   uint64
	bytes   int64
	encodeS float64
}

// replaySlack covers instructions the core fetches past the final quota
// crossing; the recorded trace must not end before the run does.
const replaySlack = 200_000

func (s *replay) config() sim.Config {
	return sim.DefaultConfig("homogen-ddr3", sim.Homogeneous(mem.DDR3), sim.PolicyFixed)
}

func (s *replay) setup(ctx context.Context, tr *tracer) error {
	var err error
	if s.app, err = s.salted("sift"); err != nil {
		return err
	}
	procs := []sim.ProcSpec{{App: s.app, Input: workload.Ref}}
	if s.res, s.ref, s.warm, err = reference(ctx, s.config(), procs, s.scale.replayMeasure); err != nil {
		return err
	}
	f, err := os.CreateTemp(s.work, "sift-*.v2")
	if err != nil {
		return err
	}
	s.path = f.Name()
	bw := bufio.NewWriterSize(f, 1<<20)
	t0 := time.Now()
	s.items, err = moca.RecordTraceV2(bw, s.app, workload.Ref, nil, s.warm+s.scale.replayMeasure+replaySlack, 0, 0)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	t1 := time.Now()
	tr.record(tr.newID(), 0, "moca.RecordTraceV2", "", t0, t1)
	s.encodeS = t1.Sub(t0).Seconds()
	if err != nil {
		return fmt.Errorf("recording trace: %w", err)
	}
	info, err := os.Stat(s.path)
	if err != nil {
		return err
	}
	s.bytes = info.Size()
	return nil
}

func (s *replay) measure(ctx context.Context, until time.Time, tr *tracer) (*phase, error) {
	var sl simLayers
	var dec decodeStats
	p := s.loop(ctx, until, tr, s.ref, func(ctx context.Context, tr *tracer, parent int64) (func() ([]byte, error), error) {
		f, err := os.Open(s.path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		t0 := time.Now()
		rs, err := trace.Open(f)
		tr.record(tr.newID(), parent, "trace.Open", "", t0, time.Now())
		if err != nil {
			return nil, err
		}
		var stream trace.ReplayStream = rs
		if tr != nil {
			if stream, err = newTimedStream(rs, tr, parent, &dec); err != nil {
				return nil, err
			}
		}
		procs := []sim.ProcSpec{{App: s.app, Input: workload.Ref, Stream: stream}}
		return simOp(ctx, tr, parent, s.config(), procs, s.scale.replayMeasure, &sl)
	})
	p.detail = map[string]float64{"minstr_per_s": minstrPerS(float64(s.warm+s.scale.replayMeasure), p.lat)}
	sl.report(p.layers)
	if tr != nil {
		var opNs float64
		for _, l := range p.lat {
			opNs += l * 1e6
		}
		p.layers["trace.decode_ns_per_item"] = ratio(float64(dec.ns), float64(dec.items))
		p.layers["trace.decode_frac"] = ratio(float64(dec.ns), opNs)
		p.layers["trace.items_per_kinstr"] = ratio(float64(dec.items)*1000, float64(len(p.lat))*float64(s.warm+s.scale.replayMeasure))
	}
	return p, nil
}

func (s *replay) digest() []byte { return s.ref }
func (s *replay) setupLayers() map[string]float64 {
	return map[string]float64{
		"trace.encode_s":       s.encodeS,
		"trace.bytes_per_item": ratio(float64(s.bytes), float64(s.items)),
	}
}
func (s *replay) model() []*sim.Result { return []*sim.Result{s.res} }
func (s *replay) counts() map[string]uint64 {
	return map[string]uint64{"measure": s.scale.replayMeasure, "warmup": s.warm, "trace_items": s.items, "trace_bytes": uint64(s.bytes)}
}
func (s *replay) close() {
	if s.path != "" {
		os.Remove(s.path)
	}
}
