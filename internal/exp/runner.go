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
	"moca/internal/mem"
	"moca/internal/obs"
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
	ins  core.Instrumentation
	err  error
}

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
	instr   map[string]core.Instrumentation
	iflight map[string]*instrFlight
	results map[string]*sim.Result
	flights map[string]*flight

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
// disturbing it. Before this existed, a canceled simulation joined to a
// profiling flight sat parked until the whole profile finished, because
// Instrument only watched the runner-level context.
func (r *Runner) InstrumentCtx(ctx context.Context, appName string) (core.Instrumentation, error) {
	r.mu.Lock()
	if r.instr == nil {
		r.instr = make(map[string]core.Instrumentation)
		r.iflight = make(map[string]*instrFlight)
	}
	if ins, ok := r.instr[appName]; ok {
		r.mu.Unlock()
		return ins, nil
	}
	if f, ok := r.iflight[appName]; ok {
		r.mu.Unlock()
		select {
		case <-f.done:
			return f.ins, f.err
		case <-ctx.Done():
			return core.Instrumentation{}, ctx.Err()
		}
	}
	f := &instrFlight{done: make(chan struct{})}
	r.iflight[appName] = f
	r.mu.Unlock()

	f.ins, f.err = r.instrument(appName)

	r.mu.Lock()
	if f.err == nil {
		r.instr[appName] = f.ins
	}
	delete(r.iflight, appName) // failed flights are retryable
	r.mu.Unlock()
	close(f.done)
	return f.ins, f.err
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
	var key string
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

// run is the deduplicated entry point: per-key singleflight over the
// in-memory memo, backed by the persistent cache. The first caller for a
// key starts the simulation on a flight goroutine; concurrent callers join
// its flight and share the identical *sim.Result. Every caller — first or
// joined — is a reference-counted waiter: a caller whose ctx fires returns
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
		r.mu.Unlock()

		//moca:gorountracked flight lifetime is tracked by f.done; the last detaching waiter cancels it
		go r.lead(fctx, f, def, memoKey, key, apps)
		return r.wait(ctx, f, false)
	}
}

// lead executes one flight's simulation under the flight context and
// publishes the outcome to every joined waiter.
func (r *Runner) lead(fctx context.Context, f *flight, def SystemDef, memoKey, key string, apps []string) {
	res, err := r.simulate(fctx, def, memoKey, apps)
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

// simulate executes (or loads from the persistent cache) one simulation.
// Panics in the simulator surface as errors carrying the run's key.
func (r *Runner) simulate(ctx context.Context, def SystemDef, memoKey string, apps []string) (res *sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("run %q panicked: %v\n%s", memoKey, p, debug.Stack())
		}
	}()

	var procs []sim.ProcSpec
	for _, app := range apps {
		ins, err := r.InstrumentCtx(ctx, app)
		if err != nil {
			return nil, err
		}
		procs = append(procs, ins.Proc(def.Policy, workload.Ref))
	}
	cfg := sim.DefaultConfig(def.Name, def.Modules, def.Policy)
	cfg.Chains = def.Chains
	cfg.Obs = r.Obs

	var cacheKey string
	if r.Cache != nil {
		cacheKey, err = ResultCacheKey(cfg, procs, r.Measure, r.FW.ProfileWindow)
		if err != nil {
			return nil, err
		}
		if cached, ok := r.Cache.LoadResult(cacheKey); ok {
			cached.Name = def.Name // presentational; excluded from the key
			r.diskHits.Add(1)
			return cached, nil
		}
	}

	var sys *sim.System
	if r.OnProgress != nil {
		cfg.Progress = func(done, total uint64) {
			r.OnProgress(memoKey, done, total, sys.ObsSnapshot)
		}
	}
	sys, err = newSystem(cfg, procs)
	if err != nil {
		return nil, err
	}
	res, err = sys.RunContext(ctx, sys.SuggestedWarmup(), r.Measure)
	if err != nil {
		return nil, err
	}
	r.simulated.Add(1)
	if r.Cache != nil {
		// Spill immediately so a later crash resumes from this run.
		if err := r.Cache.StoreResult(cacheKey, res); err != nil {
			return nil, err
		}
	}
	return res, nil
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
	b = append(b, "|policy="...)
	b = strconv.AppendInt(b, int64(def.Policy), 10)
	for _, m := range def.Modules {
		b = append(b, " kind="...)
		b = strconv.AppendInt(b, int64(m.Kind), 10)
		b = append(b, ",bytes="...)
		b = strconv.AppendUint(b, m.CapacityBytes, 10)
		b = append(b, ",channels="...)
		b = strconv.AppendInt(b, int64(m.Channels), 10)
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

// parallel runs the tasks with bounded concurrency. After all tasks
// complete it returns the error of the first failing task in submission
// order (not completion order), so a run that fails reports the same error
// no matter how the goroutines interleave. Cancellation stops tasks that
// have not started; a panicking task becomes that task's error instead of
// killing the process.
func (r *Runner) parallel(ctx context.Context, tasks []func() error) error {
	limit := effectiveParallelism(r.Parallelism, runtime.NumCPU())
	if limit > len(tasks) {
		limit = len(tasks)
	}
	if limit < 1 {
		limit = 1
	}
	sem := make(chan struct{}, limit)
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, task := range tasks {
		i, task := i, task
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("exp: parallel task %d panicked: %v\n%s", i, p, debug.Stack())
				}
			}()
			// Acquire inside the goroutine: spawning never blocks. A
			// cancellation while queued skips the task entirely.
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			defer func() { <-sem }()
			errs[i] = task()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// warmAll pre-executes the cross product of systems and workloads in
// parallel so subsequent sequential reads hit the cache.
func (r *Runner) warmSingles(systems []SystemDef, apps []string) error {
	ctx := r.context()
	var tasks []func() error
	// Profile serially first: instrumentation is shared across systems.
	for _, app := range apps {
		if _, err := r.Instrument(app); err != nil {
			return err
		}
	}
	for _, def := range systems {
		for _, app := range apps {
			def, app := def, app
			tasks = append(tasks, func() error {
				_, err := r.run(ctx, def, "single/"+app, []string{app})
				return err
			})
		}
	}
	return r.parallel(ctx, tasks)
}

func (r *Runner) warmMixes(systems []SystemDef, mixes []workload.Mix) error {
	ctx := r.context()
	appSet := map[string]bool{}
	for _, m := range mixes {
		for _, a := range m.Apps {
			appSet[a] = true
		}
	}
	for app := range appSet {
		// Serial profiling below is deterministic per app; order across
		// apps does not matter because each profile is independent.
		if _, err := r.Instrument(app); err != nil {
			return err
		}
	}
	var tasks []func() error
	for _, def := range systems {
		for _, m := range mixes {
			def, m := def, m
			tasks = append(tasks, func() error {
				_, err := r.run(ctx, def, "mix/"+m.Name, m.Apps)
				return err
			})
		}
	}
	return r.parallel(ctx, tasks)
}
