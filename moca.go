// Package moca is a simulation-backed reproduction of "MOCA: Memory Object
// Classification and Allocation in Heterogeneous Memory Systems" (Narayan,
// Zhang, Aga, Narayanasamy, Coskun — IPDPS 2018).
//
// MOCA improves the performance and energy efficiency of heterogeneous
// memory systems (here: RLDRAM + HBM + LPDDR2 behind dedicated channels)
// by profiling an application's *memory objects*, classifying each as
// latency-sensitive, bandwidth-sensitive, or non-memory-intensive, and
// placing each object's pages in the module that fits its behavior —
// rather than placing whole applications, as prior application-level
// policies do.
//
// The package bundles everything the paper's evaluation needs:
//
//   - a deterministic full-system simulator (out-of-order cores with
//     ROB-head stall accounting, two-level caches with MSHRs, per-channel
//     command-level DRAM timing for DDR3/HBM/RLDRAM/LPDDR2, page tables and
//     per-module frame pools);
//   - the MOCA pipeline: per-object profiling, threshold classification,
//     and the object-level page allocator, plus the homogeneous and
//     application-level ("Heter-App") baselines;
//   - a synthetic application suite standing in for the paper's SPEC
//     CPU2006 / SDVBS selection, with multi-program workload sets;
//   - an experiment harness regenerating every table and figure of the
//     paper (see the Experiments type and cmd/moca-bench).
//
// # Quick start
//
// Profile an application on its training input, instrument it, and compare
// MOCA against the DDR3 baseline:
//
//	fw := moca.NewFramework()
//	ins, err := fw.Instrument(moca.AppByNameMust("mcf"))
//	if err != nil { ... }
//
//	cfg := moca.DefaultSystem("moca", moca.Heterogeneous(moca.Config1), moca.PolicyMOCA)
//	res, err := moca.Run(cfg, ins.Proc(moca.PolicyMOCA, moca.Ref))
//	fmt.Println(res.AvgMemAccessTime(), res.MemEDP())
//
// All simulations are single-threaded and bit-reproducible: identical
// configurations produce identical results.
package moca

import (
	"fmt"
	"io"

	"moca/internal/core"
	"moca/internal/exp"
	"moca/internal/heap"
	"moca/internal/sim"
	"moca/internal/trace"
	"moca/internal/workload"
)

// NewFramework returns the MOCA offline pipeline (profiling,
// classification, instrumentation) with the paper's default configuration:
// Thr_Lat = 1 MPKI, Thr_BW = 20 cycles, 5-level naming, profiling on the
// homogeneous DDR3 system with training inputs.
func NewFramework() *Framework { return core.NewFramework() }

// DefaultSystem builds a full Table I system configuration around the
// given memory modules and placement policy.
func DefaultSystem(name string, modules []ModuleSpec, policy PolicyKind) SystemConfig {
	return sim.DefaultConfig(name, modules, policy)
}

// NewSystem assembles a simulated machine running one process per entry of
// procs (process index = core index).
func NewSystem(cfg SystemConfig, procs []ProcSpec) (*System, error) {
	return sim.New(cfg, procs)
}

// Run assembles a system and executes it with an automatically chosen
// warm-up and a 300k-instruction measured window per core — the harness
// default. Use NewSystem and System.Run directly for full control.
func Run(cfg SystemConfig, procs ...ProcSpec) (*Result, error) {
	sys, err := sim.New(cfg, procs)
	if err != nil {
		return nil, err
	}
	return sys.Run(sys.SuggestedWarmup(), 300_000)
}

// Apps returns the built-in application suite (Table III order).
func Apps() []AppSpec { return workload.Suite() }

// AppByName finds a built-in application spec.
func AppByName(name string) (AppSpec, bool) { return workload.ByName(name) }

// AppByNameMust is AppByName for known-good names; it panics on a typo.
func AppByNameMust(name string) AppSpec {
	s, ok := workload.ByName(name)
	if !ok {
		panic(fmt.Sprintf("moca: unknown application %q", name))
	}
	return s
}

// WorkloadMixes returns the built-in 4-application multi-program sets.
func WorkloadMixes() []Mix { return workload.Mixes() }

// MixByName finds a built-in workload set.
func MixByName(name string) (Mix, bool) { return workload.MixByName(name) }

// NewExperiments returns the harness that regenerates the paper's tables
// and figures. Results are cached within one Experiments instance, so
// related figures (for example 10 through 13) share their runs.
func NewExperiments() *Experiments { return exp.NewRunner() }

// RecordTraceV2 instantiates the application (with the given input and
// optional MOCA classification) and records n items of its instruction
// stream to w in the v2 block format: framed, checksummed and seekable,
// so replay can stream a corpus larger than RAM and resume from any block
// boundary (see OpenTraceStreamAt). items and rawBytes bound each block
// (zero selects the defaults, 16Ki items or 256 KiB raw). Replay the
// trace with OpenTraceStream and ProcSpec.Stream, passing the same App,
// Input, and Classes so the heap layout matches the recorded addresses.
func RecordTraceV2(w io.Writer, app AppSpec, input Input, classes ClassMap, n uint64, items, rawBytes int) (uint64, error) {
	allocator := heap.New(heap.Config{Classes: classes})
	inst, err := workload.Instantiate(app.ForInput(input), allocator, 0)
	if err != nil {
		return 0, err
	}
	tw, err := trace.NewBlockWriterSize(w, items, rawBytes)
	if err != nil {
		return 0, err
	}
	recorded, err := trace.Record(tw, inst.Stream(), n)
	if err != nil {
		return recorded, err
	}
	return recorded, tw.Close()
}

// OpenTraceStream opens a recorded trace for replay: a v2 trace, or a v1
// trace from an older writer, dispatching on the file header's version
// byte.
func OpenTraceStream(r io.Reader) (TraceStream, error) { return trace.Open(r) }

// OpenTraceStreamAt opens a v2 trace at a position previously captured
// from TraceBlockReader.NextPos (or acknowledged by a moca-served trace
// session), resuming replay without decoding the prefix.
func OpenTraceStreamAt(rs io.ReadSeeker, pos TracePosition) (*TraceBlockReader, error) {
	return trace.OpenBlockReaderAt(rs, pos)
}
