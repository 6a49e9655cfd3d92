package moca

import (
	"moca/internal/classify"
	"moca/internal/core"
	"moca/internal/cpu"
	"moca/internal/exp"
	"moca/internal/heap"
	"moca/internal/mem"
	"moca/internal/obs"
	"moca/internal/profile"
	"moca/internal/sim"
	"moca/internal/stats"
	"moca/internal/trace"
	"moca/internal/workload"
)

// Classification.
type (
	// Class is an object or application memory-behavior type: L, B, or N.
	Class = classify.Class
	// Thresholds are the (Thr_Lat, Thr_BW) classification cut points.
	Thresholds = classify.Thresholds
)

// The three classes (paper Fig. 5 / Table III).
const (
	LatencySensitive   = classify.LatencySensitive
	BandwidthSensitive = classify.BandwidthSensitive
	NonIntensive       = classify.NonIntensive
)

// DefaultThresholds returns Thr_Lat = 1 MPKI, Thr_BW = 20 cycles
// (Section IV-C).
func DefaultThresholds() Thresholds { return classify.DefaultThresholds() }

// Memory modules.
type (
	// MemoryKind is a module technology from Table II.
	MemoryKind = mem.Kind
	// DeviceParams are one technology's timing/power parameters.
	DeviceParams = mem.DeviceParams
	// ModuleSpec declares one physical module of a system.
	ModuleSpec = sim.ModuleSpec
)

// The four module technologies of Table II.
const (
	DDR3   = mem.DDR3
	HBM    = mem.HBM
	RLDRAM = mem.RLDRAM
	LPDDR2 = mem.LPDDR2
)

// Device returns the Table II parameters for a module technology.
func Device(kind MemoryKind) DeviceParams { return mem.Preset(kind) }

// Systems and policies.
type (
	// SystemConfig describes a complete machine to simulate.
	SystemConfig = sim.Config
	// PolicyKind selects the page-placement policy.
	PolicyKind = sim.PolicyKind
	// HeterConfig selects one of the Section VI-C capacity configurations.
	HeterConfig = sim.HeterConfig
	// ProcSpec binds an application to a core.
	ProcSpec = sim.ProcSpec
	// System is an assembled machine.
	System = sim.System
	// Result is a finished simulation's statistics.
	Result = sim.Result
)

// Placement policies.
const (
	// PolicyFixed places every page in module order (homogeneous systems).
	PolicyFixed = sim.PolicyFixed
	// PolicyAppLevel is the application-level Heter-App baseline.
	PolicyAppLevel = sim.PolicyAppLevel
	// PolicyMOCA is the paper's object-level policy.
	PolicyMOCA = sim.PolicyMOCA
	// PolicyMigrate is the dynamic hot-page migration baseline
	// (Section IV-E's contrast point).
	PolicyMigrate = sim.PolicyMigrate
)

// The three heterogeneous capacity configurations (Section VI-C).
const (
	Config1 = sim.Config1
	Config2 = sim.Config2
	Config3 = sim.Config3
)

// Homogeneous returns the paper's homogeneous baseline module set: the
// given technology across four interleaved channels.
func Homogeneous(kind MemoryKind) []ModuleSpec { return sim.Homogeneous(kind) }

// Heterogeneous returns the module set of one Section VI-C configuration
// (Config1 is the paper's default: RLDRAM + HBM + 2x LPDDR2).
func Heterogeneous(cfg HeterConfig) []ModuleSpec { return sim.Heterogeneous(cfg) }

// Workloads.
type (
	// AppSpec declares a synthetic application.
	AppSpec = workload.AppSpec
	// ObjectSpec declares one named heap object of an application.
	ObjectSpec = workload.ObjectSpec
	// Pattern is an object's access behavior.
	Pattern = workload.Pattern
	// Input selects training or reference data.
	Input = workload.Input
	// Mix is a named 4-application workload set.
	Mix = workload.Mix
	// Site is a synthetic allocation return address.
	Site = heap.Site
)

// Object access patterns.
const (
	PatternStream    = workload.Stream
	PatternStreamDep = workload.StreamDep
	PatternChase     = workload.Chase
	PatternRandom    = workload.Random
	PatternResident  = workload.Resident
	PatternBurst     = workload.Burst
)

// Input sets (Section V-D: profile on train, evaluate on ref).
const (
	Train = workload.Train
	Ref   = workload.Ref
)

// The MOCA pipeline.
type (
	// Framework is the offline profile-classify-instrument pipeline.
	Framework = core.Framework
	// Instrumentation is a profiled application's classification,
	// ready to drive MOCA allocation.
	Instrumentation = core.Instrumentation
	// Profile is a profiling run's per-object result.
	Profile = profile.Profile
	// ObjectProfile is one profiled memory object (a Fig. 2 point).
	ObjectProfile = profile.ObjectProfile
	// ClassMap carries object classifications into an allocation run.
	ClassMap = heap.ClassMap
)

// Experiments and reporting.
type (
	// Experiments regenerates the paper's tables and figures.
	Experiments = exp.Runner
	// SystemDef names one memory system under experiment.
	SystemDef = exp.SystemDef
	// Grid is a labeled rows x columns result matrix (one figure).
	Grid = stats.Grid
	// Table is a rendered text table.
	Table = stats.Table
)

// Observability.
type (
	// ObsOptions selects runtime observability for a simulation run (the
	// zero value disables it).
	ObsOptions = obs.Options
	// MetricsSnapshot is a frozen metrics-registry view; a run's Result
	// carries one when metrics were enabled.
	MetricsSnapshot = obs.Snapshot
	// RunTrace is a bounded, concurrency-safe sink of typed run-trace
	// events (page placed, fallback taken, row conflict, MSHR full,
	// migration triggered).
	RunTrace = obs.Trace
	// TraceEvent is one structured run-trace record.
	TraceEvent = obs.Event
)

// NewRunTrace returns a run-trace sink retaining at most max events
// (<= 0 selects the default cap).
func NewRunTrace(max int) *RunTrace { return obs.NewTrace(max) }

// MergeMetrics aggregates snapshots: counters add, high-watermark gauges
// take the maximum.
func MergeMetrics(snaps ...*MetricsSnapshot) *MetricsSnapshot { return obs.Merge(snaps...) }

// Instruction streams and traces.
type (
	// Instruction is one element of a core's instruction stream.
	Instruction = cpu.Instr
	// InstructionStream feeds a simulated core.
	InstructionStream = cpu.Stream
	// TraceStream replays a trace of either format; Err distinguishes
	// clean end-of-trace from a decode fault.
	TraceStream = trace.ReplayStream
	// TraceBlockWriter records the v2 block format: framed, checksummed,
	// seekable.
	TraceBlockWriter = trace.BlockWriter
	// TraceBlockReader replays a v2 trace; it refills the core's batch
	// buffer straight from its decoded block arena.
	TraceBlockReader = trace.BlockReader
	// TracePosition is a durable v2 resume point (block boundary).
	TracePosition = trace.Position
)
