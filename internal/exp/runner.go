// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section VI) from simulation. Each
// FigN/TableN function returns both the underlying data and a rendered
// text table; cmd/moca-bench and the repository benchmarks drive them.
package exp

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"moca/internal/classify"
	"moca/internal/core"
	"moca/internal/cpu"
	"moca/internal/mem"
	"moca/internal/obs"
	"moca/internal/profile"
	"moca/internal/sim"
	"moca/internal/workload"
)

// SystemDef names one memory system under test.
type SystemDef struct {
	Name    string
	Modules []sim.ModuleSpec
	Policy  sim.PolicyKind
	Chains  map[classify.Class][]mem.Kind // nil = paper defaults
}

// The six systems of Figs. 8-13, in the paper's presentation order.
const (
	SysDDR3     = "Homogen-DDR3"
	SysRL       = "Homogen-RL"
	SysHBM      = "Homogen-HBM"
	SysLP       = "Homogen-LP"
	SysHeterApp = "Heter-App"
	SysMOCA     = "MOCA"
)

// StandardSystems returns the six memory systems every main experiment
// compares: four homogeneous baselines plus the heterogeneous system
// (config1) under application-level and MOCA placement.
func StandardSystems() []SystemDef {
	return []SystemDef{
		{Name: SysDDR3, Modules: sim.Homogeneous(mem.DDR3), Policy: sim.PolicyFixed},
		{Name: SysRL, Modules: sim.Homogeneous(mem.RLDRAM), Policy: sim.PolicyFixed},
		{Name: SysHBM, Modules: sim.Homogeneous(mem.HBM), Policy: sim.PolicyFixed},
		{Name: SysLP, Modules: sim.Homogeneous(mem.LPDDR2), Policy: sim.PolicyFixed},
		{Name: SysHeterApp, Modules: sim.Heterogeneous(sim.Config1), Policy: sim.PolicyAppLevel},
		{Name: SysMOCA, Modules: sim.Heterogeneous(sim.Config1), Policy: sim.PolicyMOCA},
	}
}

// SystemNames lists the standard system names in order.
func SystemNames() []string {
	return []string{SysDDR3, SysRL, SysHBM, SysLP, SysHeterApp, SysMOCA}
}

// newSystem is sim.New behind a seam so tests can count or fault-inject
// the simulations the runner actually executes (cache hits never reach it).
var newSystem = sim.New

// RunnerStats counts the work a Runner performed versus reused.
type RunnerStats struct {
	// Simulated counts measured-window simulations actually executed.
	Simulated uint64
	// Profiled counts offline profiling runs actually executed.
	Profiled uint64
	// MemoryHits counts results served from the in-memory memo (including
	// callers that waited on another caller's in-flight run).
	MemoryHits uint64
	// DiskHits counts results loaded from the persistent cache.
	DiskHits uint64
	// ProfileDiskHits counts profiles loaded from the persistent cache.
	ProfileDiskHits uint64
}

// flight is one in-progress (or completed) deduplicated call: waiters
// block on done and then read res/err. Exactly one goroutine executes the
// work per key at a time; a failed flight is forgotten so the key can be
// retried.
//
// The flight runs under its own context (canceled via cancel), detached
// from any individual caller: waiters holds the number of callers still
// joined (guarded by Runner.mu), and a caller whose context fires merely
// detaches — only the last departing waiter cancels the shared work, so
// one impatient client never kills a simulation others are waiting on.
type flight struct {
	done    chan struct{}
	res     *sim.Result
	err     error
	waiters int                // callers still joined; guarded by Runner.mu
	cancel  context.CancelFunc // stops the flight's simulation
}

// instrFlight is the profiling pipeline's equivalent of flight.
type instrFlight struct {
	done chan struct{}
	app  *appInstr
	err  error
}

// appInstr is one app's instrumentation and, encoded on first use, its
// ref-input process spec's result-key fragments (procKey): [0] under
// every policy but MOCA, [1] under MOCA, the only policy whose ProcSpec
// carries the class map. The fragments live and die with the
// instrumentation they encode.
type appInstr struct {
	ins  core.Instrumentation
	frag [2]keyFragment
}

// keyFragment is one encoded result-key fragment, made once by whichever
// run first needs it, without Runner.mu held.
type keyFragment struct {
	once sync.Once
	b    []byte
	err  error
}

// procKey returns a's fragment for p, its process spec under MOCA (moca
// 1) or another policy (moca 0), encoding it on first use.
func (a *appInstr) procKey(moca int, p sim.ProcSpec) ([]byte, error) {
	f := &a.frag[moca]
	f.once.Do(func() { f.b, f.err = procKey(p) })
	return f.b, f.err
}

// readsInstr reports whether policy p reads instrumentation: only its runs
// profile their apps, and only its result keys name a class and a window.
func readsInstr(p sim.PolicyKind) bool { return p == sim.PolicyAppLevel || p == sim.PolicyMOCA }

// Runner executes simulations with caching (profiles and results are
// reused across figures, as Figs. 10-13 share the same runs) and bounded
// parallelism across independent runs. Runs are deduplicated: concurrent
// requests for the same key share one simulation (singleflight), and an
// optional persistent cache (Cache) spills results and profiles to disk so
// an interrupted sweep resumes from its completed runs.
type Runner struct {
	// FW is the MOCA pipeline used for profiling runs.
	FW *core.Framework
	// Measure is the measured instruction quota per core per run.
	Measure uint64
	// Parallelism bounds concurrent simulations. Zero means NumCPU (see
	// effectiveParallelism).
	Parallelism int
	// Obs selects per-run observability. Each simulation builds its own
	// metrics registry, so concurrent runs never share instruments; a
	// Trace sink, if set, is shared and concurrency-safe.
	//
	// Note: a run served from the persistent cache replays its stored
	// metrics snapshot but does not re-emit trace events into the sink.
	Obs obs.Options
	// Cache, if non-nil, persists results and profiles across invocations
	// (see OpenRunCache). Nil disables the persistent layer; the
	// in-memory memoization below is always on.
	Cache *RunCache
	// Ctx, if non-nil, cancels in-flight and pending simulations when it
	// fires (the commands wire their signal context here).
	Ctx context.Context
	// OnProgress, if non-nil, receives periodic completion ticks for every
	// simulation this runner actually executes, keyed by the run's memo key
	// (MemoKey). snap lazily captures the live metrics snapshot at the
	// tick's window barrier and must only be called from inside the
	// callback. Invoked on the flight goroutine, so it must be fast and
	// concurrency-safe; cache hits produce no ticks.
	// Pure observability: it never affects results or cache keys.
	OnProgress func(memoKey string, done, total uint64, snap func() *obs.Snapshot)

	mu      sync.Mutex
	instr   map[string]*appInstr
	iflight map[string]*instrFlight
	results map[string]*sim.Result
	flights map[string]*flight
	// cfgKeys holds each system's encoded result-key config fragment
	// (configKey), keyed by appendSystemKey: the system part of the memo
	// key, of which simulate's sim.Config is a pure function.
	cfgKeys map[string][]byte
	bare    map[string]*appInstr // each app's bareInstr entry

	simulated, profiled, memoryHits, diskHits, profileDiskHits atomic.Uint64
}

// NewRunner returns a runner with paper-default settings.
func NewRunner() *Runner {
	return &Runner{
		FW:      core.NewFramework(),
		Measure: 300_000,
	}
}

// context returns the runner's cancellation context (never nil).
func (r *Runner) context() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	//moca:allowctx root fallback for runners constructed without a lifecycle context (CLI tools, tests)
	return context.Background()
}

// Stats returns a snapshot of the runner's work counters.
func (r *Runner) Stats() RunnerStats {
	return RunnerStats{
		Simulated:       r.simulated.Load(),
		Profiled:        r.profiled.Load(),
		MemoryHits:      r.memoryHits.Load(),
		DiskHits:        r.diskHits.Load(),
		ProfileDiskHits: r.profileDiskHits.Load(),
	}
}

// Instrument profiles an application (once; deduplicated and cached, with
// a persistent-cache fast path) and returns its instrumentation.
func (r *Runner) Instrument(appName string) (core.Instrumentation, error) {
	return r.InstrumentCtx(r.context(), appName)
}

// InstrumentCtx is Instrument with a per-caller context: a caller whose
// ctx fires stops waiting on the shared profiling flight without
// disturbing it.
func (r *Runner) InstrumentCtx(ctx context.Context, appName string) (core.Instrumentation, error) {
	a, err := r.instrumentCtx(ctx, appName)
	if err != nil {
		return core.Instrumentation{}, err
	}
	return a.ins, nil
}

// instrumentCtx is InstrumentCtx returning the runner's shared entry for
// the app.
func (r *Runner) instrumentCtx(ctx context.Context, appName string) (*appInstr, error) {
	r.mu.Lock()
	if r.instr == nil {
		r.instr = make(map[string]*appInstr)
		r.iflight = make(map[string]*instrFlight)
	}
	if a, ok := r.instr[appName]; ok {
		r.mu.Unlock()
		return a, nil
	}
	if f, ok := r.iflight[appName]; ok {
		r.mu.Unlock()
		select {
		case <-f.done:
			return f.app, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &instrFlight{done: make(chan struct{})}
	r.iflight[appName] = f
	r.mu.Unlock()

	ins, err := r.instrument(appName)
	f.app, f.err = &appInstr{ins: ins}, err

	r.mu.Lock()
	if f.err == nil {
		r.instr[appName] = f.app
	}
	delete(r.iflight, appName) // failed flights are retryable
	r.mu.Unlock()
	close(f.done)
	return f.app, f.err
}

// instrument executes the profiling pipeline for one app, consulting the
// persistent cache first. Panics (a profiling bug) surface as errors
// carrying the app name instead of killing the process.
func (r *Runner) instrument(appName string) (ins core.Instrumentation, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exp: profiling %s panicked: %v\n%s", appName, p, debug.Stack())
		}
	}()
	spec, ok := workload.ByName(appName)
	if !ok {
		return core.Instrumentation{}, fmt.Errorf("exp: unknown app %q", appName)
	}
	var key []byte
	if r.Cache != nil {
		key, err = profileCacheKey(r.FW, spec)
		if err != nil {
			return core.Instrumentation{}, err
		}
		if pr, ok := r.Cache.LoadProfile(key); ok {
			r.profileDiskHits.Add(1)
			return r.FW.InstrumentFromProfile(spec, pr), nil
		}
	}
	pr, err := r.FW.Profile(spec)
	if err != nil {
		return core.Instrumentation{}, err
	}
	r.profiled.Add(1)
	if r.Cache != nil {
		if err := r.Cache.StoreProfile(key, pr); err != nil {
			return core.Instrumentation{}, err
		}
	}
	return r.FW.InstrumentFromProfile(spec, pr), nil
}

// UseProfile installs pr, a profile made elsewhere (moca-profile), as
// app's instrumentation: runs of app then neither profile it nor look its
// profile up in the persistent cache. It must precede app's first run;
// runs already memoized keep the instrumentation they ran with.
func (r *Runner) UseProfile(app string, pr profile.Profile) error {
	spec, ok := workload.ByName(app)
	if !ok {
		return fmt.Errorf("exp: unknown app %q", app)
	}
	a := &appInstr{ins: r.FW.InstrumentFromProfile(spec, pr)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.instr == nil {
		r.instr = make(map[string]*appInstr)
		r.iflight = make(map[string]*instrFlight)
	}
	r.instr[app] = a
	return nil
}

// RunSingle simulates one application alone on the given system (cached).
func (r *Runner) RunSingle(def SystemDef, appName string) (*sim.Result, error) {
	return r.RunSingleCtx(r.context(), def, appName)
}

// RunSingleCtx is RunSingle with a per-caller context: ctx firing detaches
// this caller only, and cancels the underlying simulation iff no other
// caller is still joined to it.
func (r *Runner) RunSingleCtx(ctx context.Context, def SystemDef, appName string) (*sim.Result, error) {
	return r.run(ctx, def, "single/"+appName, []string{appName})
}

// RunMix simulates a 4-application mix on the given system (cached).
func (r *Runner) RunMix(def SystemDef, mix workload.Mix) (*sim.Result, error) {
	return r.RunMixCtx(r.context(), def, mix)
}

// RunMixCtx is RunMix with a per-caller context (see RunSingleCtx).
func (r *Runner) RunMixCtx(ctx context.Context, def SystemDef, mix workload.Mix) (*sim.Result, error) {
	return r.run(ctx, def, "mix/"+mix.Name, mix.Apps)
}

// Replay is RunSingle's run of app on def with its instructions read
// from stream, a recording of app's ref input; a stream error fails it. A
// recording's identity is known only when its stream ends, so no key
// names a replay: it is never memoized, looked up or stored, and ticks no
// OnProgress. MOCA is refused (CheckReplay).
func (r *Runner) Replay(ctx context.Context, def SystemDef, app string, stream cpu.Stream) (res *sim.Result, err error) {
	if err := CheckReplay(def); err != nil {
		return nil, err
	}
	defer catchPanic("replay/"+app, &err)
	cfg, procs, _, err := r.prepare(ctx, def, []string{app})
	if err == nil {
		procs[0].Stream = stream
		res, err = r.measure(ctx, cfg, procs, "")
	}
	if s, ok := stream.(interface{ Err() error }); ok && err == nil {
		err = s.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("exp: replay/%s on %s: %w", app, def.Name, err)
	}
	return res, nil
}

// CheckReplay refuses a replay under MOCA, which classes each heap object
// by its address's heap partition: the recording fixed that, and a trace
// carries no class map to check it against.
func CheckReplay(def SystemDef) error {
	if def.Policy != sim.PolicyMOCA {
		return nil
	}
	return fmt.Errorf("exp: %s cannot replay a trace: MOCA classes are fixed by the heap addresses a recording was made with, and a trace carries no class map to check them against; replay on heter-app, migrate or a homogeneous system", def.Name)
}

// Memoized returns def's result for run ("single/app" or "mix/name", as
// MemoKey takes it) if the in-memory memo holds one, and counts a memory
// hit as a memoized run does. It never blocks: it neither starts nor joins
// a flight, and it leaves the persistent cache alone.
func (r *Runner) Memoized(def SystemDef, run string) (*sim.Result, bool) {
	var buf [192]byte
	kb := appendMemoKey(buf[:0], def, run)
	r.mu.Lock()
	res, ok := r.results[string(kb)]
	r.mu.Unlock()
	if ok {
		r.memoryHits.Add(1)
	}
	return res, ok
}

// run is the deduplicated entry point: per-key singleflight over the
// in-memory memo, backed by the persistent cache. The first caller for a
// key registers a flight; concurrent callers join it and share the
// identical *sim.Result. When every app is already instrumented, the first
// caller prepares the run and looks it up in the persistent cache on its
// own goroutine, so a disk hit starts none; otherwise, and on a miss, a
// flight goroutine profiles and simulates. Every caller — first or joined
// — is a reference-counted waiter: a caller whose ctx fires returns
// ctx.Err() and detaches without disturbing the flight, and only the last
// departing waiter cancels the shared simulation.
func (r *Runner) run(ctx context.Context, def SystemDef, key string, apps []string) (*sim.Result, error) {
	// The key is assembled on the stack; the map lookups below convert it
	// without allocating, so only a new flight pays for the string.
	var buf [192]byte
	kb := appendMemoKey(buf[:0], def, key)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r.mu.Lock()
		if r.results == nil {
			r.results = make(map[string]*sim.Result)
			r.flights = make(map[string]*flight)
		}
		if res, ok := r.results[string(kb)]; ok {
			r.mu.Unlock()
			r.memoryHits.Add(1)
			return res, nil
		}
		if f, ok := r.flights[string(kb)]; ok {
			if f.waiters == 0 {
				// The last waiter already detached and canceled this
				// flight; it is draining toward a context.Canceled error
				// that would be spurious for this caller, whose own ctx is
				// live. Wait for the dead flight to clear and retry the
				// key — by then it has either published a result anyway
				// (cancel raced with completion) or left the map empty for
				// a fresh flight.
				r.mu.Unlock()
				select {
				case <-f.done:
					continue
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			f.waiters++
			r.mu.Unlock()
			return r.wait(ctx, f, true)
		}
		f := &flight{done: make(chan struct{}), waiters: 1}
		// The flight's lifetime is bound to the runner, not any one caller.
		fctx, cancel := context.WithCancel(r.context())
		f.cancel = cancel
		memoKey := string(kb)
		r.flights[memoKey] = f
		instrumented := true
		for _, app := range apps {
			if _, ok := r.instr[app]; !ok && readsInstr(def.Policy) {
				instrumented = false
				break
			}
		}
		r.mu.Unlock()

		var p *prepared
		if instrumented {
			// Preparing cannot block on profiling now, so this caller is
			// the flight until the lookup misses.
			res, miss, err := r.lookup(ctx, def, memoKey, apps)
			if miss == nil {
				r.finish(f, def, memoKey, key, res, err)
				return f.res, f.err
			}
			p = miss
		}
		//moca:gorountracked flight lifetime is tracked by f.done; the last detaching waiter cancels it
		go r.lead(fctx, f, def, memoKey, key, apps, p)
		return r.wait(ctx, f, false)
	}
}

// prepared is one run as prepare resolves it, handed from a lookup that
// missed to the simulation.
type prepared struct {
	cfg      sim.Config
	procs    []sim.ProcSpec
	cacheKey []byte
}

// lead executes one flight's simulation under the flight context and
// publishes the outcome to every joined waiter. p is the run as the
// caller's lookup prepared it, or nil if lead must prepare and look it up.
func (r *Runner) lead(fctx context.Context, f *flight, def SystemDef, memoKey, key string, apps []string, p *prepared) {
	res, err := r.simulate(fctx, def, memoKey, apps, p)
	r.finish(f, def, memoKey, key, res, err)
}

// finish publishes a flight's outcome to its waiters, memoizes a result
// and retires the flight; a failed flight is forgotten so the key can be
// retried.
func (r *Runner) finish(f *flight, def SystemDef, memoKey, key string, res *sim.Result, err error) {
	if err != nil {
		err = fmt.Errorf("exp: %s on %s: %w", key, def.Name, err)
	}
	r.mu.Lock()
	f.res, f.err = res, err
	if err == nil {
		r.results[memoKey] = res
	}
	delete(r.flights, memoKey) // failed flights are retryable
	r.mu.Unlock()
	close(f.done)
	f.cancel() // release the flight context's resources
}

// wait blocks until the flight completes or ctx fires. On cancellation the
// waiter detaches; the last waiter out cancels the flight's simulation.
// joined callers (not the flight's originator) count as memory hits on
// success, matching the memoized-read accounting.
func (r *Runner) wait(ctx context.Context, f *flight, joined bool) (*sim.Result, error) {
	select {
	case <-f.done:
		if joined && f.err == nil {
			r.memoryHits.Add(1)
		}
		return f.res, f.err
	case <-ctx.Done():
		r.mu.Lock()
		f.waiters--
		if f.waiters == 0 {
			// Cancel under the lock: a new caller joining the flight is
			// serialized against this decrement, so it either raised the
			// count first (no cancel) or joins an already-canceled flight
			// whose error is retryable.
			f.cancel()
		}
		r.mu.Unlock()
		return nil, ctx.Err()
	}
}

// catchPanic, deferred, turns a panic in the run named memoKey into *err.
func catchPanic(memoKey string, err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("run %q panicked: %v\n%s", memoKey, p, debug.Stack())
	}
}

// lookup prepares def's run of apps and looks it up in the persistent
// cache. A hit returns the result; a miss returns the prepared run for
// simulate. Panics surface as errors carrying the run's key.
func (r *Runner) lookup(ctx context.Context, def SystemDef, memoKey string, apps []string) (res *sim.Result, miss *prepared, err error) {
	defer catchPanic(memoKey, &err)
	cfg, procs, ins, err := r.prepare(ctx, def, apps)
	if err != nil {
		return nil, nil, err
	}
	var cacheKey []byte
	if r.Cache != nil {
		kp := keyBufs.Get().(*[]byte)
		defer keyBufs.Put(kp)
		if *kp, err = r.appendResultCacheKey((*kp)[:0], def, cfg, procs, ins); err != nil {
			return nil, nil, err
		}
		if cached, ok := r.Cache.LoadResult(*kp); ok {
			cached.Name = def.Name // presentational; excluded from the key
			r.diskHits.Add(1)
			return cached, nil, nil
		}
		cacheKey = slices.Clone(*kp) // the miss stores under it later
	}
	return nil, &prepared{cfg: cfg, procs: procs, cacheKey: cacheKey}, nil
}

// keyBufs recycles the buffers lookup builds result keys in: a key is
// read only while the cache looks it up, and a miss keeps a copy.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// simulate executes one simulation of the prepared run p, first preparing
// and looking it up (lookup) if p is nil. Panics in the simulator surface
// as errors carrying the run's key.
func (r *Runner) simulate(ctx context.Context, def SystemDef, memoKey string, apps []string, p *prepared) (res *sim.Result, err error) {
	defer catchPanic(memoKey, &err)
	if p == nil {
		if res, p, err = r.lookup(ctx, def, memoKey, apps); p == nil {
			return res, err
		}
	}

	if res, err = r.measure(ctx, p.cfg, p.procs, memoKey); err != nil {
		return nil, err
	}
	if r.Cache != nil {
		// Spill immediately so a later crash resumes from this run.
		if err := r.Cache.StoreResult(p.cacheKey, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// measure simulates procs on cfg for r.Measure instructions per core
// after the suggested warm-up, ticking OnProgress as memoKey if not "".
func (r *Runner) measure(ctx context.Context, cfg sim.Config, procs []sim.ProcSpec, memoKey string) (*sim.Result, error) {
	var sys *sim.System
	if r.OnProgress != nil && memoKey != "" {
		cfg.Progress = func(done, total uint64) {
			r.OnProgress(memoKey, done, total, sys.ObsSnapshot)
		}
	}
	sys, err := newSystem(cfg, procs)
	if err != nil {
		return nil, err
	}
	res, err := sys.RunContext(ctx, sys.SuggestedWarmup(), r.Measure)
	if err != nil {
		return nil, err
	}
	r.simulated.Add(1)
	return res, nil
}

// runConfig simulates apps, prepared for cfg's policy, on cfg, a system an
// ablation varies beyond what a SystemDef names; it is never cached.
func (r *Runner) runConfig(cfg sim.Config, apps ...string) (*sim.Result, error) {
	_, procs, _, err := r.prepare(r.context(), SystemDef{Policy: cfg.Policy}, apps)
	if err != nil {
		return nil, err
	}
	return r.measure(r.context(), cfg, procs, "")
}

// prepare resolves def's run of apps to the config and process specs
// simulate runs, and ins[i] to app i's entry: instrumented (profiling it
// on first use) if def's policy reads that, bare otherwise.
func (r *Runner) prepare(ctx context.Context, def SystemDef, apps []string) (cfg sim.Config, procs []sim.ProcSpec, ins []*appInstr, err error) {
	ins = make([]*appInstr, len(apps))
	procs = make([]sim.ProcSpec, len(apps))
	for i, app := range apps {
		if readsInstr(def.Policy) {
			ins[i], err = r.instrumentCtx(ctx, app)
		} else {
			ins[i], err = r.bareInstr(app)
		}
		if err != nil {
			return sim.Config{}, nil, nil, err
		}
		procs[i] = ins[i].ins.Proc(def.Policy, workload.Ref)
	}
	cfg = sim.DefaultConfig(def.Name, def.Modules, def.Policy)
	cfg.Chains = def.Chains
	cfg.Obs = r.Obs
	return cfg, procs, ins, nil
}

// bareInstr returns app's bare entry: an Instrumentation carrying only
// the app spec, all that a policy which reads no instrumentation needs.
func (r *Runner) bareInstr(app string) (*appInstr, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a, ok := r.bare[app]; ok {
		return a, nil
	}
	spec, ok := workload.ByName(app)
	if !ok {
		return nil, fmt.Errorf("exp: unknown app %q", app)
	}
	if r.bare == nil {
		r.bare = make(map[string]*appInstr)
	}
	r.bare[app] = &appInstr{ins: core.Instrumentation{App: spec}}
	return r.bare[app], nil
}

// appendResultCacheKey appends to b the result key (resultKey) of
// prepare's run of def under r.Measure and r.FW.ProfileWindow (if def's
// policy reads it), given prepare's procs and ins. It splices fragments
// encoded once, and never under r.mu: one per system (cfgKeys) and one
// per app entry and MOCA-or-not (appInstr.procKey).
func (r *Runner) appendResultCacheKey(b []byte, def SystemDef, cfg sim.Config, procs []sim.ProcSpec, ins []*appInstr) ([]byte, error) {
	var sysBuf [160]byte
	sys := appendSystemKey(sysBuf[:0], def)
	moca, window := 0, uint64(0)
	if def.Policy == sim.PolicyMOCA {
		moca = 1
	}
	if readsInstr(def.Policy) {
		window = r.FW.ProfileWindow
	}
	r.mu.Lock()
	cfgKey, ok := r.cfgKeys[string(sys)]
	r.mu.Unlock()
	if !ok {
		var err error
		if cfgKey, err = configKey(cfg); err != nil {
			return nil, err
		}
		// Two runs may both encode a new system; their bytes are equal.
		r.mu.Lock()
		if r.cfgKeys == nil {
			r.cfgKeys = make(map[string][]byte)
		}
		r.cfgKeys[string(sys)] = cfgKey
		r.mu.Unlock()
	}
	var procBuf [4][]byte
	procKeys := procBuf[:0]
	for i, a := range ins {
		k, err := a.procKey(moca, procs[i])
		if err != nil {
			return nil, err
		}
		procKeys = append(procKeys, k)
	}
	return appendResultKey(b, cfgKey, procKeys, r.Measure, window, cfg.Obs.Metrics), nil
}

// MemoKey names one run of def in a Runner's memo, its Results and its
// OnProgress ticks: "name|run|system", where run is "single/app" or
// "mix/name" and system spells out the policy, the modules and any
// placement chains. The name alone is not enough: SystemByName calls
// moca, moca@config2 and moca@config3 all "moca", and a memo keyed by it
// served one capacity config's result for another. The key is built from
// def's fields with strconv, never by encoding a sim.Config.
func MemoKey(def SystemDef, run string) string {
	var buf [192]byte
	return string(appendMemoKey(buf[:0], def, run))
}

// appendMemoKey appends MemoKey(def, run) to b.
func appendMemoKey(b []byte, def SystemDef, run string) []byte {
	b = append(b, def.Name...)
	b = append(b, '|')
	b = append(b, run...)
	b = append(b, '|')
	return appendSystemKey(b, def)
}

// appendSystemKey appends MemoKey's system part to b. Every field of def
// but Name is spelled out, so equal parts mean an equal simulated
// sim.Config and equal configKey bytes: an empty chains map (no chains)
// is told apart from a nil one (the paper defaults), and an empty chain
// from a nil one (they simulate alike but encode as [] and null).
func appendSystemKey(b []byte, def SystemDef) []byte {
	b = append(b, "policy="...)
	b = strconv.AppendInt(b, int64(def.Policy), 10)
	for _, m := range def.Modules {
		b = append(b, " kind="...)
		b = strconv.AppendInt(b, int64(m.Kind), 10)
		b = append(b, ",bytes="...)
		b = strconv.AppendUint(b, m.CapacityBytes, 10)
		b = append(b, ",channels="...)
		b = strconv.AppendInt(b, int64(m.Channels), 10)
	}
	if def.Chains != nil && len(def.Chains) == 0 {
		b = append(b, " chains=none"...)
	}
	classes := make([]classify.Class, 0, len(def.Chains))
	for c := range def.Chains {
		classes = append(classes, c)
	}
	slices.Sort(classes)
	for _, c := range classes {
		b = append(b, " chain"...)
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, '=')
		if def.Chains[c] == nil {
			b = append(b, "nil"...)
		}
		for i, k := range def.Chains[c] {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(k), 10)
		}
	}
	return b
}

// Results returns a copy of the result cache, keyed by MemoKey (the
// metrics reporters aggregate these per system name, the key's first
// field).
func (r *Runner) Results() map[string]*sim.Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*sim.Result, len(r.results))
	for k, v := range r.results {
		out[k] = v
	}
	return out
}

// effectiveParallelism resolves the concurrent-simulation bound. An
// explicit Parallelism wins unchanged (the caller opted in, possibly to
// oversubscription); the default is NumCPU, floored at 1.
func effectiveParallelism(parallelism, numCPU int) int {
	if parallelism > 0 {
		return parallelism
	}
	return max(numCPU, 1)
}

// parallel runs the tasks on a pool of at most effectiveParallelism
// workers, the calling goroutine among them, which take task indices in
// submission order. After all tasks complete it returns the error of the
// first failing task in submission order (not completion order), so a run
// that fails reports the same error no matter how the workers interleave.
// Cancellation skips tasks that have not started; a panicking task becomes
// that task's error instead of killing the process.
func (r *Runner) parallel(ctx context.Context, tasks []func() error) error {
	limit := min(effectiveParallelism(r.Parallelism, runtime.NumCPU()), len(tasks))
	errs := make([]error, len(tasks))
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(tasks) {
				return
			}
			if errs[i] = ctx.Err(); errs[i] == nil {
				errs[i] = runTask(i, tasks[i])
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < limit; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runTask runs parallel's task i, turning a panic into its error.
func runTask(i int, task func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exp: parallel task %d panicked: %v\n%s", i, p, debug.Stack())
		}
	}()
	return task()
}

// warmSingles runs every app alone on every system in parallel (warm).
func (r *Runner) warmSingles(systems []SystemDef, apps []string) error {
	runs := make([]workload.Mix, len(apps))
	for i, app := range apps {
		runs[i] = workload.Mix{Name: app, Apps: []string{app}}
	}
	return r.warm(systems, "single/", runs)
}

// warm runs each of runs, keyed kind+Name, on every system in parallel so
// the figures' sequential reads hit the memo. If a system reads
// instrumentation, the same worker pool first takes one task per distinct
// app that loads (or profiles) it for the runs to share; a run that needs
// an app still loading joins that app's flight. An app that fails to
// load cancels the tasks not yet done, and the pass returns its error.
func (r *Runner) warm(systems []SystemDef, kind string, runs []workload.Mix) error {
	ctx, cancel := context.WithCancel(r.context())
	defer cancel()
	var tasks []func() error
	if slices.ContainsFunc(systems, func(def SystemDef) bool { return readsInstr(def.Policy) }) {
		seen := make(map[string]bool)
		for _, job := range runs {
			for _, app := range job.Apps {
				if !seen[app] {
					seen[app] = true
					tasks = append(tasks, func() error {
						// Loads wait out their flight even once a sibling
						// failed, so each reports its own outcome.
						_, err := r.instrumentCtx(r.context(), app)
						if err != nil {
							cancel()
						}
						return err
					})
				}
			}
		}
	}
	for _, def := range systems {
		for _, job := range runs {
			tasks = append(tasks, func() error {
				_, err := r.run(ctx, def, kind+job.Name, job.Apps)
				return err
			})
		}
	}
	return r.parallel(ctx, tasks)
}
