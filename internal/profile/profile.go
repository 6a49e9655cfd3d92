// Package profile implements MOCA's offline profiling stage (paper
// Sections III-A, IV-A/B): a lookup table of named memory objects
// accumulating, per object, LLC misses and ROB-head stall cycles per load
// miss, plus the process-wide instruction count that normalizes MPKI.
// A finished profile classifies its objects and exports the ClassMap that
// is "instrumented into the application binary".
package profile

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"moca/internal/classify"
	"moca/internal/heap"
)

// Profiler accumulates per-object counters during a simulation. Wire its
// hook methods to the core and cache hierarchy callbacks.
type Profiler struct {
	instructions uint64
	stats        []objCounters
}

type objCounters struct {
	llcMisses   uint64
	memLoads    uint64
	stallCycles uint64
	stores      uint64
	loads       uint64
}

// New returns an empty profiler.
func New() *Profiler { return &Profiler{} }

func (p *Profiler) grow(id heap.NameID) *objCounters {
	for len(p.stats) <= int(id) {
		p.stats = append(p.stats, objCounters{})
	}
	return &p.stats[id]
}

// OnLLCMiss records a primary LLC miss for an object; wire to
// cache.Hierarchy.OnLLCMiss.
func (p *Profiler) OnLLCMiss(obj uint64) {
	p.grow(heap.NameID(obj)).llcMisses++
}

// OnMemLoadRetire records a retired LLC-missing load and its ROB-head
// stall cycles; wire to cpu.Core.OnMemLoadRetire.
func (p *Profiler) OnMemLoadRetire(obj uint64, stallCycles uint64) {
	c := p.grow(heap.NameID(obj))
	c.memLoads++
	c.stallCycles += stallCycles
}

// OnStore records a store access for an object; wire to
// cache.Hierarchy.OnStore. Write intensity is the extra signal
// write-asymmetric tiers (PCM) classify on.
func (p *Profiler) OnStore(obj uint64) {
	p.grow(heap.NameID(obj)).stores++
}

// OnLoad records a load access for an object; wire to
// cache.Hierarchy.OnLoad.
func (p *Profiler) OnLoad(obj uint64) {
	p.grow(heap.NameID(obj)).loads++
}

// OnRetire counts retired instructions; wire to cpu.Core.OnRetire.
func (p *Profiler) OnRetire(n uint64) { p.instructions += n }

// Instructions returns the retired instruction count observed so far.
func (p *Profiler) Instructions() uint64 { return p.instructions }

// ObjectProfile is one finished LUT row: a named object with its profiled
// metrics and classification.
type ObjectProfile struct {
	ID      heap.NameID  `json:"id"`
	Key     heap.NameKey `json:"key"`
	Label   string       `json:"label,omitempty"`
	Site    heap.Site    `json:"site"`
	Context []heap.Site  `json:"context,omitempty"`

	SizeBytes uint64 `json:"size_bytes"` // peak live bytes
	Allocs    uint64 `json:"allocs"`

	LLCMisses   uint64 `json:"llc_misses"`
	MemLoads    uint64 `json:"mem_loads"`
	StallCycles uint64 `json:"stall_cycles"`
	Stores      uint64 `json:"stores"`
	Loads       uint64 `json:"loads"`

	MPKI         float64 `json:"mpki"`
	StallPerMiss float64 `json:"stall_per_miss"`
	// WPKI is store accesses per kilo-instruction and WriteRatio is
	// stores/(loads+stores) — the write-intensity signals for
	// write-asymmetric tiers (an extension beyond the paper).
	WPKI       float64        `json:"wpki"`
	WriteRatio float64        `json:"write_ratio"`
	Class      classify.Class `json:"class"`
}

// Profile is a complete profiling result for one application run.
type Profile struct {
	App          string              `json:"app"`
	Instructions uint64              `json:"instructions"`
	Thresholds   classify.Thresholds `json:"thresholds"`
	Objects      []ObjectProfile     `json:"objects"`
}

// Snapshot classifies the accumulated counters against the allocator's
// name table and returns the finished profile. Objects are ordered by
// descending LLC misses (hottest first), pseudo-objects included.
func (p *Profiler) Snapshot(app string, names []heap.NameInfo, th classify.Thresholds) Profile {
	pr := Profile{App: app, Instructions: p.instructions, Thresholds: th}
	for _, info := range names {
		var c objCounters
		if int(info.ID) < len(p.stats) {
			c = p.stats[info.ID]
		}
		op := ObjectProfile{
			ID: info.ID, Key: info.Key, Label: info.Label,
			Site: info.Site, Context: info.Context,
			SizeBytes: info.MaxBytes, Allocs: info.Allocs,
			LLCMisses: c.llcMisses, MemLoads: c.memLoads, StallCycles: c.stallCycles,
			Stores: c.stores, Loads: c.loads,
		}
		op.MPKI, op.StallPerMiss = metrics(c, p.instructions)
		if p.instructions > 0 {
			op.WPKI = float64(c.stores) * 1000 / float64(p.instructions)
		}
		if total := c.loads + c.stores; total > 0 {
			op.WriteRatio = float64(c.stores) / float64(total)
		}
		op.Class = th.Classify(op.MPKI, op.StallPerMiss)
		pr.Objects = append(pr.Objects, op)
	}
	sort.SliceStable(pr.Objects, func(i, j int) bool {
		return pr.Objects[i].LLCMisses > pr.Objects[j].LLCMisses
	})
	return pr
}

func metrics(c objCounters, instructions uint64) (mpki, stallPerMiss float64) {
	if instructions > 0 {
		mpki = float64(c.llcMisses) * 1000 / float64(instructions)
	}
	if c.memLoads > 0 {
		stallPerMiss = float64(c.stallCycles) / float64(c.memLoads)
	}
	return
}

// ClassMap exports the classification for instrumentation into a
// subsequent run's allocator (heap.Config.Classes). Pseudo-objects are
// excluded: non-heap segments are placed by segment, not by name.
func (pr Profile) ClassMap() heap.ClassMap {
	m := make(heap.ClassMap, len(pr.Objects))
	for _, o := range pr.Objects {
		if o.ID >= heap.FirstHeapName {
			m[o.Key] = o.Class
		}
	}
	return m
}

// AppMetrics aggregates the whole application's metrics (Fig. 1's
// coordinates) across all objects, pseudo-objects included.
func (pr Profile) AppMetrics() classify.Metrics {
	var misses, memLoads, stalls uint64
	for _, o := range pr.Objects {
		misses += o.LLCMisses
		memLoads += o.MemLoads
		stalls += o.StallCycles
	}
	m := classify.Metrics{}
	if pr.Instructions > 0 {
		m.MPKI = float64(misses) * 1000 / float64(pr.Instructions)
	}
	if memLoads > 0 {
		m.StallPerMiss = float64(stalls) / float64(memLoads)
	}
	return m
}

// AppClass is the application-level classification used by the Heter-App
// baseline (Phadke & Narayanasamy, DATE 2011) and Table III.
func (pr Profile) AppClass() classify.Class {
	m := pr.AppMetrics()
	return pr.Thresholds.Classify(m.MPKI, m.StallPerMiss)
}

// Object finds a profiled object by name key.
func (pr Profile) Object(key heap.NameKey) (ObjectProfile, bool) {
	for _, o := range pr.Objects {
		if o.Key == key {
			return o, true
		}
	}
	return ObjectProfile{}, false
}

// HeapObjects returns only the real heap objects (no pseudo segments).
func (pr Profile) HeapObjects() []ObjectProfile {
	var out []ObjectProfile
	for _, o := range pr.Objects {
		if o.ID >= heap.FirstHeapName {
			out = append(out, o)
		}
	}
	return out
}

// Marshal serializes the profile (the artifact cmd/moca-profile writes and
// cmd/moca-sim consumes, standing in for binary instrumentation).
func (pr Profile) Marshal() ([]byte, error) {
	return json.MarshalIndent(pr, "", "  ")
}

// Unmarshal parses a serialized profile. Anything but a JSON object is
// an error: json.Unmarshal alone would read null as a profile with no
// objects, under which every MOCA run would go unclassified.
func Unmarshal(data []byte) (Profile, error) {
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) == 0 || trimmed[0] != '{' {
		return Profile{}, errors.New("profile: not a JSON object")
	}
	var pr Profile
	if err := json.Unmarshal(data, &pr); err != nil {
		return Profile{}, fmt.Errorf("profile: %w", err)
	}
	return pr, nil
}

// Merge combines profiles from multiple simulation points into one, with
// the given weights (the paper's SimPoint-weighted metrics, Section V-A).
// Objects are matched by NameKey; weights are normalized internally.
// Classification uses the thresholds of the first profile.
func Merge(profiles []Profile, weights []float64) (Profile, error) {
	if len(profiles) == 0 {
		return Profile{}, fmt.Errorf("profile: merge of zero profiles")
	}
	if len(weights) != len(profiles) {
		return Profile{}, fmt.Errorf("profile: %d profiles but %d weights", len(profiles), len(weights))
	}
	var wsum float64
	for _, w := range weights {
		if w < 0 {
			return Profile{}, fmt.Errorf("profile: negative weight %v", w)
		}
		wsum += w
	}
	if wsum == 0 {
		return Profile{}, fmt.Errorf("profile: zero total weight")
	}

	th := profiles[0].Thresholds
	// Accumulation runs over a flat table in first-seen order, with a
	// keyIndex resolving NameKey → table row. The index persists across
	// the profile windows of the merge, so each window's objects cost one
	// open-addressed probe each — no per-window map rebuild, and the
	// output order is the deterministic insertion order.
	var accs []mergeAcc
	var idx keyIndex
	idx.init(64)
	var instr float64
	for i, pr := range profiles {
		w := weights[i] / wsum
		instr += w * float64(pr.Instructions)
		for _, o := range pr.Objects {
			row, fresh := idx.at(o.Key, len(accs))
			if fresh {
				accs = append(accs, mergeAcc{op: o})
				a := &accs[row]
				a.op.LLCMisses, a.op.MemLoads, a.op.StallCycles = 0, 0, 0
			}
			a := &accs[row]
			a.op.LLCMisses += o.LLCMisses
			a.op.MemLoads += o.MemLoads
			a.op.StallCycles += o.StallCycles
			a.op.Stores += o.Stores
			a.op.Loads += o.Loads
			if o.SizeBytes > a.op.SizeBytes {
				a.op.SizeBytes = o.SizeBytes
			}
			a.mpki += w * o.MPKI
			a.stall += w * o.StallPerMiss
			a.stallWeights += w
		}
	}
	out := Profile{App: profiles[0].App, Instructions: uint64(instr), Thresholds: th}
	for i := range accs {
		a := &accs[i]
		a.op.MPKI = a.mpki
		if a.stallWeights > 0 {
			a.op.StallPerMiss = a.stall / a.stallWeights
		}
		a.op.Class = th.Classify(a.op.MPKI, a.op.StallPerMiss)
		out.Objects = append(out.Objects, a.op)
	}
	sort.SliceStable(out.Objects, func(i, j int) bool {
		return out.Objects[i].LLCMisses > out.Objects[j].LLCMisses
	})
	return out, nil
}

// mergeAcc is one row of Merge's flat accumulator table.
type mergeAcc struct {
	op           ObjectProfile
	mpki, stall  float64
	stallWeights float64
}

// keyIndex is a power-of-two, linear-probing open-addressed index from
// NameKey to a dense row number. NameKeys are already well-mixed hashes
// (heap.Allocator.KeyOf is FNV-based), so the index uses them directly.
type keyIndex struct {
	keys []heap.NameKey
	rows []int32
	used []bool
	n    int
}

func (ix *keyIndex) init(size int) {
	ix.keys = make([]heap.NameKey, size)
	ix.rows = make([]int32, size)
	ix.used = make([]bool, size)
	ix.n = 0
}

// at returns the row for key, assigning `next` as a new row (fresh=true)
// on first sight. Grows at ~75% load.
func (ix *keyIndex) at(key heap.NameKey, next int) (row int, fresh bool) {
	mask := len(ix.keys) - 1
	i := int(uint64(key)) & mask
	for ix.used[i] {
		if ix.keys[i] == key {
			return int(ix.rows[i]), false
		}
		i = (i + 1) & mask
	}
	ix.keys[i], ix.rows[i], ix.used[i] = key, int32(next), true
	ix.n++
	if ix.n*4 > len(ix.keys)*3 {
		ix.grow()
	}
	return next, true
}

func (ix *keyIndex) grow() {
	keys, rows, used := ix.keys, ix.rows, ix.used
	ix.init(len(keys) * 2)
	mask := len(ix.keys) - 1
	for i := range keys {
		if !used[i] {
			continue
		}
		j := int(uint64(keys[i])) & mask
		for ix.used[j] {
			j = (j + 1) & mask
		}
		ix.keys[j], ix.rows[j], ix.used[j] = keys[i], rows[i], true
		ix.n++
	}
}
