// Package alloc implements the page-placement layer: the OS fault handler
// that hands physical frames to virtual pages, and the three placement
// policies the paper compares —
//
//   - Fixed: every page from one pool (the homogeneous baselines);
//   - AppLevel ("Heter-App"): every page of an application goes to the
//     module preferred by the application's aggregate class, falling back
//     to the next-best module when full (Phadke & Narayanasamy, DATE 2011);
//   - MOCA: heap pages go to the module preferred by the *object's* class,
//     recognized from the virtual page's heap partition; non-heap pages go
//     to the low-power module (paper Sections III-C, IV-D, VI-D).
package alloc

import (
	"fmt"

	"moca/internal/classify"
	"moca/internal/heap"
	"moca/internal/mem"
	"moca/internal/obs"
	"moca/internal/vm"
)

// Request describes a faulting page to a placement policy.
type Request struct {
	Proc    int
	VPage   uint64
	Segment heap.Segment
	// ObjClass is the class encoded in the page's heap partition;
	// ObjClassKnown is false for the default partition and non-heap pages.
	ObjClass      classify.Class
	ObjClassKnown bool
	// AppClass is the process's application-level classification.
	AppClass classify.Class
}

// Policy orders the candidate modules for a faulting page, most preferred
// first. The OS walks the list until a module has a free frame.
type Policy interface {
	Name() string
	Preference(r Request) []int
}

// ModuleInfo identifies a module for chain construction.
type ModuleInfo struct {
	ID   int
	Kind mem.Kind
}

// DefaultChains returns the paper's per-class module-kind preference
// orders: latency-sensitive objects want RLDRAM, bandwidth-sensitive want
// HBM with LPDDR as "next best" (Section III-C), and everything else wants
// LPDDR first.
func DefaultChains() map[classify.Class][]mem.Kind {
	return map[classify.Class][]mem.Kind{
		classify.LatencySensitive:   {mem.RLDRAM, mem.HBM, mem.LPDDR2, mem.DDR3},
		classify.BandwidthSensitive: {mem.HBM, mem.LPDDR2, mem.RLDRAM, mem.DDR3},
		classify.NonIntensive:       {mem.LPDDR2, mem.HBM, mem.RLDRAM, mem.DDR3},
	}
}

// ExpandChain resolves a kind-preference order into concrete module IDs:
// all modules of the first kind (in ID order), then the second, and
// finally any modules of kinds not mentioned, so placement never fails
// while any memory remains.
func ExpandChain(modules []ModuleInfo, kinds []mem.Kind) []int {
	var out []int
	used := make(map[int]bool, len(modules))
	for _, k := range kinds {
		for _, m := range modules {
			if m.Kind == k && !used[m.ID] {
				out = append(out, m.ID)
				used[m.ID] = true
			}
		}
	}
	for _, m := range modules {
		if !used[m.ID] {
			out = append(out, m.ID)
			used[m.ID] = true
		}
	}
	return out
}

// Fixed places every page according to one fixed module order.
type Fixed struct {
	name  string
	order []int
}

// NewFixed builds a fixed-order policy (homogeneous systems).
func NewFixed(name string, order []int) *Fixed {
	return &Fixed{name: name, order: order}
}

// Name implements Policy.
func (p *Fixed) Name() string { return p.name }

// Preference implements Policy.
func (p *Fixed) Preference(Request) []int { return p.order }

// AppLevel is the Heter-App baseline: placement by the application's
// aggregate class, for every page of the process.
type AppLevel struct {
	chains map[classify.Class][]int
}

// NewAppLevel builds the Heter-App policy over the given modules.
func NewAppLevel(modules []ModuleInfo, chains map[classify.Class][]mem.Kind) *AppLevel {
	if chains == nil {
		chains = DefaultChains()
	}
	expanded := make(map[classify.Class][]int, len(chains))
	//moca:unordered builds a per-class map; each key is written independently
	for c, kinds := range chains {
		expanded[c] = ExpandChain(modules, kinds)
	}
	return &AppLevel{chains: expanded}
}

// Name implements Policy.
func (p *AppLevel) Name() string { return "heter-app" }

// Preference implements Policy.
func (p *AppLevel) Preference(r Request) []int { return p.chains[r.AppClass] }

// MOCA is the paper's object-level policy: heap pages follow their
// object's class (known from the heap partition), everything else goes to
// the low-power chain.
type MOCA struct {
	chains map[classify.Class][]int
}

// NewMOCA builds the MOCA policy over the given modules.
func NewMOCA(modules []ModuleInfo, chains map[classify.Class][]mem.Kind) *MOCA {
	if chains == nil {
		chains = DefaultChains()
	}
	expanded := make(map[classify.Class][]int, len(chains))
	//moca:unordered builds a per-class map; each key is written independently
	for c, kinds := range chains {
		expanded[c] = ExpandChain(modules, kinds)
	}
	return &MOCA{chains: expanded}
}

// Name implements Policy.
func (p *MOCA) Name() string { return "moca" }

// Preference implements Policy.
func (p *MOCA) Preference(r Request) []int {
	if r.Segment == heap.SegHeap && r.ObjClassKnown {
		return p.chains[r.ObjClass]
	}
	// Stack, code, globals, and unclassified heap: low-power module
	// (Section VI-D).
	return p.chains[classify.NonIntensive]
}

var (
	_ Policy = (*Fixed)(nil)
	_ Policy = (*AppLevel)(nil)
	_ Policy = (*MOCA)(nil)
)

// Stats counts OS placement activity.
type Stats struct {
	Faults        uint64
	FallbackPages uint64 // pages that missed their first-choice module
	OOMFailures   uint64
	PagesByModule map[int]uint64
}

// OS is the page-fault handler: it owns the frame pools, per-process page
// tables and TLBs, and consults the policy on every fault.
type OS struct {
	modules  []*vm.Module
	policy   Policy
	procs    map[int]*process
	stats    Stats
	migrator *Migrator // nil unless migration is active

	// Observability; all nil (free) unless AttachObs was called.
	obsFaults    *obs.Counter
	obsFallbacks *obs.Counter
	obsOOM       *obs.Counter
	obsPlaced    *obs.Counter
	obsTrace     *obs.Trace
	obsNow       func(proc int) int64 // per-process simulation clock for trace timestamps
}

type process struct {
	table    *vm.PageTable
	tlb      *vm.TLB
	appClass classify.Class
}

// NewOS builds the OS over the module pools with the given policy.
func NewOS(modules []*vm.Module, policy Policy) (*OS, error) {
	if len(modules) == 0 {
		return nil, fmt.Errorf("alloc: no memory modules")
	}
	if policy == nil {
		return nil, fmt.Errorf("alloc: nil policy")
	}
	return &OS{
		modules: modules,
		policy:  policy,
		procs:   make(map[int]*process),
		stats:   Stats{PagesByModule: make(map[int]uint64)},
	}, nil
}

// AddProcess registers a process with its application-level class (used by
// the Heter-App policy). Re-registering panics: a simulator bug.
func (o *OS) AddProcess(proc int, appClass classify.Class) {
	if _, dup := o.procs[proc]; dup {
		panic(fmt.Sprintf("alloc: duplicate process %d", proc))
	}
	o.procs[proc] = &process{
		table:    vm.NewPageTable(),
		tlb:      vm.NewTLB(64),
		appClass: appClass,
	}
}

// AttachObs registers the OS on the metrics registry ("alloc.*" counters)
// and the run-trace sink (page-placed and fallback-taken events, stamped
// with now(proc) — the faulting process's simulation clock; each process
// advances on its own core's event queue). Nil arguments disable the
// corresponding instrumentation.
func (o *OS) AttachObs(r *obs.Registry, tr *obs.Trace, now func(proc int) int64) {
	if r == nil {
		o.obsFaults, o.obsFallbacks, o.obsOOM, o.obsPlaced = nil, nil, nil, nil
	} else {
		o.obsFaults = r.Counter("alloc.faults")
		o.obsFallbacks = r.Counter("alloc.fallback_pages")
		o.obsOOM = r.Counter("alloc.oom_failures")
		o.obsPlaced = r.Counter("alloc.pages_placed")
	}
	o.obsTrace = tr
	o.obsNow = now
}

func (o *OS) traceNow(proc int) int64 {
	if o.obsNow == nil {
		return 0
	}
	return o.obsNow(proc)
}

// Policy returns the active placement policy.
func (o *OS) Policy() Policy { return o.policy }

// Stats returns a snapshot of placement statistics.
func (o *OS) Stats() Stats {
	cp := o.stats
	cp.PagesByModule = make(map[int]uint64, len(o.stats.PagesByModule))
	//moca:unordered map-to-map copy; no order-sensitive effects
	for k, v := range o.stats.PagesByModule {
		cp.PagesByModule[k] = v
	}
	return cp
}

// PageTable exposes a process's page table (for placement censuses).
func (o *OS) PageTable(proc int) (*vm.PageTable, bool) {
	p, ok := o.procs[proc]
	if !ok {
		return nil, false
	}
	return p.table, true
}

// TLB exposes a process's TLB statistics.
func (o *OS) TLB(proc int) (*vm.TLB, bool) {
	p, ok := o.procs[proc]
	if !ok {
		return nil, false
	}
	return p.tlb, true
}

// Translate maps a virtual address for a process, allocating a physical
// frame on first touch per the policy. ok=false means every candidate
// module is full — physical memory exhausted.
func (o *OS) Translate(proc int, vaddr uint64, write bool) (paddr uint64, ok bool) {
	p, found := o.procs[proc]
	if !found {
		panic(fmt.Sprintf("alloc: translate for unknown process %d", proc))
	}
	vpage := vm.VPage(vaddr)
	offset := vaddr & (vm.PageBytes - 1)

	if f, hit := p.tlb.Lookup(vpage); hit {
		return vm.Compose(f.Module, f.Number, offset), true
	}
	if f, hit := p.table.Lookup(vpage); hit {
		p.tlb.Insert(vpage, f)
		return vm.Compose(f.Module, f.Number, offset), true
	}

	// Page fault: consult the policy and walk its preference chain.
	o.stats.Faults++
	if o.obsFaults != nil {
		o.obsFaults.Inc()
	}
	req := Request{
		Proc:     proc,
		VPage:    vpage,
		Segment:  heap.SegmentOf(vaddr),
		AppClass: p.appClass,
	}
	req.ObjClass, req.ObjClassKnown = heap.PartitionClassOf(vaddr)

	prefs := o.policy.Preference(req)
	for i := 0; i < len(prefs); {
		id := prefs[i]
		if id < 0 || id >= len(o.modules) {
			panic(fmt.Sprintf("alloc: policy %q returned invalid module %d", o.policy.Name(), id))
		}
		// Modules of one kind are interchangeable (the paper's two
		// LPDDR2 modules have separate controllers): balance across the
		// run of equally-preferred same-kind candidates by free space,
		// which stripes pages — and therefore bandwidth — over their
		// channels.
		groupEnd := i + 1
		for groupEnd < len(prefs) && o.modules[prefs[groupEnd]].Kind == o.modules[id].Kind {
			groupEnd++
		}
		best := -1
		var bestFree uint64
		for _, cand := range prefs[i:groupEnd] {
			if free := o.modules[cand].Free(); free > bestFree {
				best, bestFree = cand, free
			}
		}
		if best >= 0 {
			frame, got := o.modules[best].Alloc()
			if got {
				if i > 0 {
					o.stats.FallbackPages++
					if o.obsFallbacks != nil {
						o.obsFallbacks.Inc()
					}
					if o.obsTrace != nil {
						o.obsTrace.Emit(obs.Event{
							At: o.traceNow(proc), Kind: obs.FallbackTaken, Unit: "os",
							Core: proc, Addr: vpage, Aux: uint64(i),
						})
					}
				}
				f := vm.Frame{Module: best, Number: frame}
				p.table.Map(vpage, f)
				p.tlb.Insert(vpage, f)
				o.stats.PagesByModule[best]++
				if o.obsPlaced != nil {
					o.obsPlaced.Inc()
				}
				if o.obsTrace != nil {
					o.obsTrace.Emit(obs.Event{
						At: o.traceNow(proc), Kind: obs.PagePlaced, Unit: "os",
						Core: proc, Addr: vpage, Aux: uint64(best),
					})
				}
				if o.migrator != nil {
					o.migrator.noteMapping(proc, vpage, f)
				}
				return vm.Compose(best, frame, offset), true
			}
		}
		i = groupEnd
	}
	o.stats.OOMFailures++
	if o.obsOOM != nil {
		o.obsOOM.Inc()
	}
	return 0, false
}

// Translator adapts one process's view of the OS to the cpu.Translator
// interface.
type Translator struct {
	OS   *OS
	Proc int
}

// Translate implements cpu.Translator.
func (t Translator) Translate(vaddr uint64, write bool) (uint64, bool) {
	return t.OS.Translate(t.Proc, vaddr, write)
}
