// Package sim assembles the full system: cores with private cache
// hierarchies, an OS with a placement policy, per-module frame pools, and
// one memory controller per channel, all driven by a single deterministic
// event queue. It reproduces the paper's simulation methodology (Section
// V): warm-up then a measured window, per-core instruction quotas, and
// memory/system metrics per run.
package sim

import (
	"fmt"

	"moca/internal/alloc"
	"moca/internal/cache"
	"moca/internal/classify"
	"moca/internal/cpu"
	"moca/internal/event"
	"moca/internal/heap"
	"moca/internal/mem"
	"moca/internal/obs"
	"moca/internal/power"
	"moca/internal/workload"
)

// ModuleSpec declares one physical memory module of the system.
type ModuleSpec struct {
	Kind mem.Kind
	// CapacityBytes is the module's total size.
	CapacityBytes uint64
	// Channels is how many memory channels serve the module: 1 for the
	// heterogeneous modules (each has a dedicated controller, Section
	// V-C), 4 for the homogeneous systems (RoRaBaChCo interleaving).
	Channels int
}

// PolicyKind selects the page-placement policy.
type PolicyKind int

const (
	// PolicyFixed places all pages in module order (homogeneous systems).
	PolicyFixed PolicyKind = iota
	// PolicyAppLevel is the Heter-App baseline (application-level).
	PolicyAppLevel
	// PolicyMOCA is the paper's object-level policy.
	PolicyMOCA
	// PolicyMigrate is the dynamic hot-page migration baseline the paper
	// contrasts MOCA against (Section IV-E): pages start in slow memory
	// and an epoch-based monitor promotes hot pages, paying monitoring,
	// copy-traffic, and shootdown costs at runtime.
	PolicyMigrate
)

func (p PolicyKind) String() string {
	switch p {
	case PolicyFixed:
		return "fixed"
	case PolicyAppLevel:
		return "heter-app"
	case PolicyMOCA:
		return "moca"
	case PolicyMigrate:
		return "migrate"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(p))
	}
}

// Config describes a complete system to simulate.
type Config struct {
	Name string

	Core      cpu.Config
	CacheL1   cache.Config
	CacheL2   cache.Config
	Modules   []ModuleSpec
	Policy    PolicyKind
	Scheduler mem.Scheduler
	// RowPolicy and BankStripe tune every channel (defaults: open page,
	// row-buffer striping, per Table I). Used by the controller ablations.
	RowPolicy  mem.RowPolicy
	BankStripe mem.BankStripe
	// Chains overrides the per-class module-kind preference orders
	// (nil = paper defaults; used by the fallback-order ablation).
	Chains map[classify.Class][]mem.Kind

	// Profile enables per-object profiling (the offline stage).
	Profile bool
	// Prefetch enables the optional per-core stride prefetcher (off by
	// default, matching Table I; the prefetch ablation uses it).
	Prefetch cache.PrefetchConfig
	// MigrationEpoch is the monitoring interval for PolicyMigrate
	// (default 50 us).
	MigrationEpoch event.Time
	// Migration tunes the PolicyMigrate engine (defaults apply).
	Migration alloc.MigratorConfig
	// Thresholds classify profiled objects (default: Thr_Lat=1, Thr_BW=20).
	Thresholds classify.Thresholds
	// CoreModel computes core power (default: the 21 W calibration).
	CoreModel power.CoreModel
	// Obs selects runtime observability (metrics registry and/or run-trace
	// sink). Zero value: disabled — the hot path pays only nil checks.
	Obs obs.Options
	// Progress, if non-nil, is called periodically during RunContext with
	// the whole-run completion (done out of total, in per-core retired
	// instructions over warmup + measure). The hook runs at a window
	// barrier, between phases, so it may read the system (e.g.
	// ObsSnapshot) but must not block: the simulation does not advance
	// until it returns. Pure observability — excluded from serialization
	// and cache keys; the values passed are deterministic, only their
	// wall-clock timing varies.
	Progress func(done, total uint64) `json:"-"`
}

// ProcSpec binds an application to a core.
type ProcSpec struct {
	App workload.AppSpec
	// Input selects train or ref data.
	Input workload.Input
	// Classes is the MOCA instrumentation (nil outside MOCA runs).
	Classes heap.ClassMap
	// AppClass is the application-level class for the Heter-App policy.
	AppClass classify.Class
	// NamingDepth for the heap (default 5; the naming ablation uses 1).
	NamingDepth int
	// Stream, if non-nil, replaces the application's built-in generator
	// (trace replay). The App is still instantiated so the heap layout
	// matches the addresses in the stream: a trace must be replayed with
	// the same App spec, input, and Classes it was recorded under.
	Stream cpu.Stream
}

// Experiment scale: 1/64 of the paper's 2 GB system (DESIGN.md).
const (
	mb = 1 << 20

	// HomogeneousCapacity is the total size of each homogeneous system
	// (the paper's 2 GB scaled).
	HomogeneousCapacity = 32 * mb
)

// Homogeneous returns the paper's homogeneous baseline: one module kind,
// total capacity split over four interleaved channels (Section V-B).
func Homogeneous(kind mem.Kind) []ModuleSpec {
	return []ModuleSpec{{Kind: kind, CapacityBytes: HomogeneousCapacity, Channels: 4}}
}

// HeterConfig identifies the three heterogeneous capacity configurations
// of Section VI-C. Config1 is the paper's default.
type HeterConfig int

const (
	// Config1: 256 MB RLDRAM + 768 MB HBM + 2x512 MB LPDDR2 (scaled).
	Config1 HeterConfig = iota + 1
	// Config2: 512 MB RLDRAM + 512 MB HBM + 1 GB LPDDR2 (scaled).
	Config2
	// Config3: 768 MB RLDRAM + 768 MB HBM + 512 MB LPDDR2 (scaled).
	Config3
)

func (h HeterConfig) String() string { return fmt.Sprintf("config%d", int(h)) }

// Heterogeneous returns the module set for one of the paper's three
// heterogeneous configurations, at experiment scale. Four channels total:
// RLDRAM, HBM, and two LPDDR2 modules with dedicated controllers.
func Heterogeneous(cfg HeterConfig) []ModuleSpec {
	switch cfg {
	case Config1:
		return []ModuleSpec{
			{Kind: mem.RLDRAM, CapacityBytes: 4 * mb, Channels: 1},
			{Kind: mem.HBM, CapacityBytes: 12 * mb, Channels: 1},
			{Kind: mem.LPDDR2, CapacityBytes: 8 * mb, Channels: 1},
			{Kind: mem.LPDDR2, CapacityBytes: 8 * mb, Channels: 1},
		}
	case Config2:
		return []ModuleSpec{
			{Kind: mem.RLDRAM, CapacityBytes: 8 * mb, Channels: 1},
			{Kind: mem.HBM, CapacityBytes: 8 * mb, Channels: 1},
			{Kind: mem.LPDDR2, CapacityBytes: 8 * mb, Channels: 1},
			{Kind: mem.LPDDR2, CapacityBytes: 8 * mb, Channels: 1},
		}
	case Config3:
		return []ModuleSpec{
			{Kind: mem.RLDRAM, CapacityBytes: 12 * mb, Channels: 1},
			{Kind: mem.HBM, CapacityBytes: 12 * mb, Channels: 1},
			{Kind: mem.LPDDR2, CapacityBytes: 4 * mb, Channels: 1},
			{Kind: mem.LPDDR2, CapacityBytes: 4 * mb, Channels: 1},
		}
	default:
		panic(fmt.Sprintf("sim: unknown heterogeneous config %d", int(cfg)))
	}
}

// DefaultConfig fills in the Table I microarchitecture around the given
// memory system and policy.
func DefaultConfig(name string, modules []ModuleSpec, policy PolicyKind) Config {
	h := cache.DefaultHierarchyConfig(0)
	return Config{
		Name:       name,
		Core:       cpu.DefaultConfig(),
		CacheL1:    h.L1,
		CacheL2:    h.L2,
		Modules:    modules,
		Policy:     policy,
		Scheduler:  mem.FRFCFS,
		Thresholds: classify.DefaultThresholds(),
		CoreModel:  power.DefaultCoreModel(),
	}
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if err := c.CacheL1.Validate(); err != nil {
		return fmt.Errorf("sim: L1: %w", err)
	}
	if err := c.CacheL2.Validate(); err != nil {
		return fmt.Errorf("sim: L2: %w", err)
	}
	if len(c.Modules) == 0 {
		return fmt.Errorf("sim: no memory modules")
	}
	for i, m := range c.Modules {
		if m.Channels <= 0 {
			return fmt.Errorf("sim: module %d has %d channels", i, m.Channels)
		}
		if m.CapacityBytes == 0 || m.CapacityBytes%uint64(m.Channels) != 0 {
			return fmt.Errorf("sim: module %d capacity %d not divisible across %d channels", i, m.CapacityBytes, m.Channels)
		}
	}
	if err := c.Thresholds.Validate(); err != nil {
		return err
	}
	return nil
}
