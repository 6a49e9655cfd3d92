// Package core is the MOCA framework itself — the paper's contribution
// (Sections III and IV) assembled from the substrate packages:
//
//  1. Offline profiling: run the application on its training input with
//     per-object naming and counters (Fig. 7's "offline profiler").
//  2. Classification: threshold the per-object metrics into L/B/N types.
//  3. Instrumentation: export the classification as a ClassMap, the stand-in
//     for recompiling the binary with typed allocation calls.
//  4. Runtime allocation: hand the ClassMap to a MOCA-policy system, whose
//     allocator partitions the heap by type and whose OS places pages on
//     the best-fit module with next-best fallback.
package core

import (
	"fmt"

	"moca/internal/cache"
	"moca/internal/classify"
	"moca/internal/heap"
	"moca/internal/mem"
	"moca/internal/profile"
	"moca/internal/sim"
	"moca/internal/workload"
)

// Framework configures MOCA's offline pipeline.
type Framework struct {
	// ObjectThresholds classify heap objects (Thr_Lat, Thr_BW).
	ObjectThresholds classify.Thresholds
	// AppThresholds classify whole applications for the Heter-App
	// baseline and Table III.
	AppThresholds classify.Thresholds
	// NamingDepth is the call-stack depth for object naming (default 5).
	NamingDepth int
	// ProfileWindow is the measured instruction count of a profiling run.
	ProfileWindow uint64
	// ProfileModules is the memory system profiling runs execute on
	// (default: the homogeneous DDR3 baseline).
	ProfileModules []sim.ModuleSpec
	// Prefetch optionally enables a stride prefetcher during profiling
	// runs — off by default; the prefetch ablation measures how it
	// shifts the classification metrics.
	Prefetch cache.PrefetchConfig
}

// NewFramework returns the paper's default configuration.
func NewFramework() *Framework {
	return &Framework{
		ObjectThresholds: classify.DefaultThresholds(),
		AppThresholds:    classify.DefaultAppThresholds(),
		NamingDepth:      heap.DefaultNamingDepth,
		ProfileWindow:    300_000,
		ProfileModules:   sim.Homogeneous(mem.DDR3),
	}
}

// Profile runs the offline profiling stage: the application executes its
// training input on the profiling system with naming and counters enabled.
func (f *Framework) Profile(app workload.AppSpec) (profile.Profile, error) {
	cfg := sim.DefaultConfig("profiler", f.ProfileModules, sim.PolicyFixed)
	cfg.Profile = true
	cfg.Prefetch = f.Prefetch
	cfg.Thresholds = f.ObjectThresholds

	sys, err := sim.New(cfg, []sim.ProcSpec{{
		App:         app,
		Input:       workload.Train,
		NamingDepth: f.NamingDepth,
	}})
	if err != nil {
		return profile.Profile{}, err
	}
	res, err := sys.Run(sys.SuggestedWarmup(), f.ProfileWindow)
	if err != nil {
		return profile.Profile{}, fmt.Errorf("core: profiling %s: %w", app.Name, err)
	}
	pr := res.Cores[0].Profile
	if pr == nil {
		return profile.Profile{}, fmt.Errorf("core: profiling %s produced no profile", app.Name)
	}
	return *pr, nil
}

// ProfileMulti profiles the application over several simulation points
// (distinct stream offsets via seed salts) and merges them with equal
// weights — the paper's SimPoint-weighted profiling (Section V-A).
func (f *Framework) ProfileMulti(app workload.AppSpec, points int) (profile.Profile, error) {
	if points <= 0 {
		return profile.Profile{}, fmt.Errorf("core: need at least one simulation point")
	}
	var profiles []profile.Profile
	var weights []float64
	for i := 0; i < points; i++ {
		spec := app
		spec.Seed = app.Seed + uint64(i)*0x1009
		pr, err := f.Profile(spec)
		if err != nil {
			return profile.Profile{}, err
		}
		profiles = append(profiles, pr)
		weights = append(weights, 1)
	}
	return profile.Merge(profiles, weights)
}

// Instrumentation is what the pipeline "compiles into the binary": the
// object classification plus the application-level class.
type Instrumentation struct {
	App      workload.AppSpec
	Profile  profile.Profile
	Classes  heap.ClassMap
	AppClass classify.Class
}

// Instrument runs the full offline pipeline for one application.
func (f *Framework) Instrument(app workload.AppSpec) (Instrumentation, error) {
	pr, err := f.Profile(app)
	if err != nil {
		return Instrumentation{}, err
	}
	return f.InstrumentFromProfile(app, pr), nil
}

// InstrumentFromProfile derives instrumentation from an existing profile
// (for example one loaded from disk, or re-thresholded for an ablation).
func (f *Framework) InstrumentFromProfile(app workload.AppSpec, pr profile.Profile) Instrumentation {
	// Re-classify under the framework's thresholds in case they differ
	// from the ones stored in the profile.
	cm := make(heap.ClassMap, len(pr.Objects))
	for _, o := range pr.HeapObjects() {
		cm[o.Key] = f.ObjectThresholds.Classify(o.MPKI, o.StallPerMiss)
	}
	m := pr.AppMetrics()
	return Instrumentation{
		App:      app,
		Profile:  pr,
		Classes:  cm,
		AppClass: f.AppThresholds.Classify(m.MPKI, m.StallPerMiss),
	}
}

// TieringClassMap builds a write-aware classification for two-tier
// DRAM+NVM systems (an extension beyond the paper, following the data-
// tiering related work of Section VII): objects that are latency-sensitive
// OR write-heavy (write ratio above maxWriteRatio) map to the DRAM tier
// (class L); read-dominated objects map to the NVM tier along with the
// cold ones (class N), because NVM reads are tolerable but writes are slow
// and wear the cells.
func (f *Framework) TieringClassMap(pr profile.Profile, maxWriteRatio float64) heap.ClassMap {
	cm := make(heap.ClassMap)
	for _, o := range pr.HeapObjects() {
		base := f.ObjectThresholds.Classify(o.MPKI, o.StallPerMiss)
		switch {
		case o.WriteRatio > maxWriteRatio || base == classify.LatencySensitive:
			cm[o.Key] = classify.LatencySensitive
		default:
			cm[o.Key] = classify.NonIntensive
		}
	}
	return cm
}

// Proc builds the simulation process spec for this application under the
// given policy, carrying only the instrumentation the policy reads: MOCA
// runs get the ClassMap, Heter-App runs the app-level class, and every
// other policy neither.
func (ins Instrumentation) Proc(policy sim.PolicyKind, input workload.Input) sim.ProcSpec {
	p := sim.ProcSpec{App: ins.App, Input: input}
	switch policy {
	case sim.PolicyMOCA:
		p.Classes = ins.Classes
	case sim.PolicyAppLevel:
		p.AppClass = ins.AppClass
	}
	return p
}
