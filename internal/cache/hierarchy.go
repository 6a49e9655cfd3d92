package cache

import (
	"fmt"

	"moca/internal/event"
	"moca/internal/mem"
	"moca/internal/obs"
)

// Level identifies where an access was satisfied.
type Level int

const (
	// L1Hit: satisfied by the L1 data cache.
	L1Hit Level = iota + 1
	// L2Hit: satisfied by the unified L2 (the LLC).
	L2Hit
	// MemHit: LLC miss, satisfied by a memory module.
	MemHit
)

func (l Level) String() string {
	switch l {
	case L1Hit:
		return "L1"
	case L2Hit:
		return "L2"
	case MemHit:
		return "Mem"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Backend is the memory system below the LLC. Submit requests a 64 B line
// at a physical address; sink (may be nil for writebacks) receives the
// completion, keyed by token. Submit reports false under backpressure, in
// which case the hierarchy retries later.
type Backend interface {
	Submit(lineAddr uint64, write bool, core int, obj uint64, sink mem.DoneSink, token uint64) bool
}

// AccessSink receives access completions from a Hierarchy. Like mem.DoneSink
// it replaces a per-access closure: the requester registers itself once and
// demultiplexes completions by token (for a core, the ROB index).
type AccessSink interface {
	AccessDone(token uint64, at event.Time, level Level)
}

// HierarchyConfig configures one core's private cache hierarchy.
type HierarchyConfig struct {
	L1       Config
	L2       Config
	CPUCycle event.Time // duration of one core clock
	Core     int        // core ID stamped on memory requests
	// Prefetch enables the optional stride prefetcher (off by default;
	// the paper's system has none).
	Prefetch PrefetchConfig
}

// DefaultHierarchyConfig returns the Table I cache parameters.
func DefaultHierarchyConfig(core int) HierarchyConfig {
	return HierarchyConfig{
		L1:       Config{SizeBytes: 64 << 10, Ways: 2, LatencyCycles: 2, MSHRs: 4},
		L2:       Config{SizeBytes: 512 << 10, Ways: 16, LatencyCycles: 20, MSHRs: 20},
		CPUCycle: event.Nanosecond,
		Core:     core,
	}
}

// HierStats aggregates hierarchy-level counters beyond the per-level ones.
type HierStats struct {
	DemandMisses   uint64 // primary LLC misses (MSHR allocations)
	MergedMisses   uint64 // accesses merged into an in-flight MSHR
	MSHRFullStalls uint64 // accesses that waited for a free MSHR
	Writebacks     uint64 // dirty lines written to memory
	BackPressure   uint64 // submissions rejected by the backend
}

// waiter is one access blocked on an in-flight miss.
type waiter struct {
	sink  AccessSink
	token uint64
}

type mshrEntry struct {
	lineAddr  uint64
	dirty     bool // a store is merged; fill L1 dirty
	submitted bool
	prefetch  bool   // speculative fetch: fills L2 only, invisible to stats
	obj       uint64 // object of the triggering access
	waiters   []waiter
}

type pendingMiss struct {
	lineAddr uint64
	obj      uint64
	write    bool
	sink     AccessSink
	token    uint64
}

// Hierarchy is one core's timed two-level cache hierarchy. L2 is inclusive
// of L1 (evictions back-invalidate), write-back, write-allocate.
// It is single-threaded, driven by the shared event queue.
type Hierarchy struct {
	cfg     HierarchyConfig
	q       *event.Queue
	backend Backend
	l1      *Cache
	l2      *Cache

	mshrs    *mshrIndex   // line address → in-flight entry, fixed size
	freeMSHR []*mshrEntry // entry pool; recycled on fill
	// Misses stalled on a full MSHR file, split by op so read-priority
	// admission (first read in arrival order, else oldest write) is O(1)
	// instead of a scan past every queued write. Head indices mark the
	// consumed prefix (no per-admit shifts).
	waitR     []pendingMiss
	waitRHead int
	waitW     []pendingMiss
	waitWHead int
	wbQ       []uint64     // writebacks awaiting backend acceptance
	subQ      []*mshrEntry // fetches awaiting backend acceptance (FIFO, deterministic)

	stats      HierStats
	pf         *prefetcher // nil unless enabled
	retryArmed bool

	// Observability; all nil (free) unless AttachObs was called. Counters
	// aggregate across every hierarchy attached to one registry.
	obsMisses    *obs.Counter
	obsMerged    *obs.Counter
	obsMSHRFull  *obs.Counter
	obsWriteback *obs.Counter
	obsBackPress *obs.Counter
	obsMSHROcc   *obs.Gauge
	obsTrace     *obs.Trace

	// OnLLCMiss, if set, is invoked for every primary LLC miss with the
	// object of the triggering access — the profiler's miss counter.
	OnLLCMiss func(obj uint64)
	// OnStore and OnLoad, if set, are invoked for every store/load access
	// (any hit level) — the profiler's per-object access counters, from
	// which write ratios derive.
	OnStore func(obj uint64)
	OnLoad  func(obj uint64)
}

// NewHierarchy builds the hierarchy on the given event queue and backend.
func NewHierarchy(q *event.Queue, backend Backend, cfg HierarchyConfig) (*Hierarchy, error) {
	l1, err := New(cfg.L1)
	if err != nil {
		return nil, fmt.Errorf("L1: %w", err)
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	if cfg.CPUCycle <= 0 {
		return nil, fmt.Errorf("cache: CPU cycle must be positive")
	}
	if cfg.L2.MSHRs == 0 {
		return nil, fmt.Errorf("cache: L2 needs at least one MSHR")
	}
	h := &Hierarchy{
		cfg:     cfg,
		q:       q,
		backend: backend,
		l1:      l1,
		l2:      l2,
		mshrs:   newMSHRIndex(cfg.L2.MSHRs),
	}
	if cfg.Prefetch.Enable {
		h.pf = newPrefetcher(cfg.Prefetch)
	}
	return h, nil
}

// AttachObs registers the hierarchy on the metrics registry ("cache.*"
// counters and the "cache.max_mshr_occupancy" gauge) and the run-trace
// sink (MSHR-full events). Nil arguments disable the corresponding
// instrumentation.
func (h *Hierarchy) AttachObs(r *obs.Registry, tr *obs.Trace) {
	if r == nil {
		h.obsMisses, h.obsMerged, h.obsMSHRFull = nil, nil, nil
		h.obsWriteback, h.obsBackPress, h.obsMSHROcc = nil, nil, nil
	} else {
		h.obsMisses = r.Counter("cache.demand_misses")
		h.obsMerged = r.Counter("cache.merged_misses")
		h.obsMSHRFull = r.Counter("cache.mshr_full_stalls")
		h.obsWriteback = r.Counter("cache.writebacks")
		h.obsBackPress = r.Counter("cache.backpressure")
		h.obsMSHROcc = r.Gauge("cache.max_mshr_occupancy")
	}
	h.obsTrace = tr
}

// PrefetchStats returns the stride prefetcher's counters (zero value when
// disabled).
func (h *Hierarchy) PrefetchStats() PrefetchStats {
	if h.pf == nil {
		return PrefetchStats{}
	}
	return h.pf.stats
}

// L1 returns the L1 data cache (for stats and tests).
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 returns the unified L2 / LLC (for stats and tests).
func (h *Hierarchy) L2() *Cache { return h.l2 }

// Stats returns hierarchy-level counters.
func (h *Hierarchy) Stats() HierStats { return h.stats }

// ResetStats clears hierarchy, per-level, and prefetcher counters;
// contents persist.
func (h *Hierarchy) ResetStats() {
	h.stats = HierStats{}
	h.l1.ResetStats()
	h.l2.ResetStats()
	if h.pf != nil {
		h.pf.stats = PrefetchStats{}
	}
}

// OutstandingMisses returns the number of in-flight LLC misses.
func (h *Hierarchy) OutstandingMisses() int { return h.mshrs.len() }

// Event opcodes for the hierarchy's pooled events.
const (
	hopDeliverL1 int32 = iota // p = AccessSink, i64 = token
	hopDeliverL2              // p = AccessSink, i64 = token
	hopSubmit                 // p = *mshrEntry
	hopRetry                  // retry backpressured work
)

// OnEvent dispatches the hierarchy's pooled events (event.Handler).
//
//moca:hotpath
func (h *Hierarchy) OnEvent(now event.Time, op int32, i64 int64, p any) {
	switch op {
	case hopDeliverL1:
		p.(AccessSink).AccessDone(uint64(i64), now, L1Hit)
	case hopDeliverL2:
		p.(AccessSink).AccessDone(uint64(i64), now, L2Hit)
	case hopSubmit:
		h.submit(p.(*mshrEntry))
	case hopRetry:
		h.retryArmed = false
		h.pumpWritebacks()
		h.pumpSubmissions()
	}
}

// MemDone receives line completions from the backend (mem.DoneSink); the
// token is the line address, which names the MSHR entry.
//
//moca:hotpath
func (h *Hierarchy) MemDone(token uint64, at event.Time) {
	if e := h.mshrs.lookup(token); e != nil {
		h.onFill(e, at)
	}
}

//moca:hotpath
func (h *Hierarchy) getMSHR() *mshrEntry {
	if n := len(h.freeMSHR); n > 0 {
		e := h.freeMSHR[n-1]
		h.freeMSHR = h.freeMSHR[:n-1]
		return e
	}
	return &mshrEntry{}
}

//moca:hotpath
func (h *Hierarchy) putMSHR(e *mshrEntry) {
	*e = mshrEntry{waiters: e.waiters[:0]}
	h.freeMSHR = append(h.freeMSHR, e)
}

// Access performs a load (write=false) or store (write=true) to a physical
// address on behalf of memory object obj. sink, if non-nil, receives the
// completion (with the given token) and the level that satisfied it. Stores
// are posted: callers typically pass sink=nil and never stall on them.
//
//moca:hotpath
func (h *Hierarchy) Access(addr uint64, obj uint64, write bool, sink AccessSink, token uint64) {
	at, level, hit := h.lookup(addr, obj, write)
	switch {
	case !hit:
		h.missPath(LineAddr(addr), obj, write, sink, token)
	case sink != nil:
		h.Promote(at, h.q.Reserve(), level, sink, token)
	}
}

// AccessLoad is Access for a load with a sink, with clean L1 and L2 hits
// serviced inline: the completion time is returned to the caller, which
// settles the load itself, and only an event-order slot is reserved for
// the delivery (event.Queue.Reserve) — no event is posted. A hit can never
// have an MSHR conflict (a resident line is by definition not in flight),
// so inline=true is always a clean hit; everything else (miss, merge,
// MSHR-full) takes the miss path and reports inline=false, with the
// completion delivered through sink. A caller that later needs the
// completion callback after all (a dependent load) posts it with Promote.
//
//moca:hotpath
func (h *Hierarchy) AccessLoad(addr uint64, obj uint64, sink AccessSink, token uint64) (readyAt event.Time, ord uint64, level Level, inline bool) {
	at, level, hit := h.lookup(addr, obj, false)
	if !hit {
		h.missPath(LineAddr(addr), obj, false, sink, token)
		return 0, 0, 0, false
	}
	return at, h.q.Reserve(), level, true
}

// lookup is the demand-access head shared by Access and AccessLoad: the
// profiling hooks, the prefetcher, then the L1 and L2 lookups. On a hit it
// returns the completion time and the level that satisfied it.
//
//moca:hotpath
func (h *Hierarchy) lookup(addr uint64, obj uint64, write bool) (at event.Time, level Level, hit bool) {
	lineAddr := LineAddr(addr)
	cycle := h.cfg.CPUCycle

	if write {
		if h.OnStore != nil {
			h.OnStore(obj)
		}
	} else if h.OnLoad != nil {
		h.OnLoad(obj)
	}
	if h.pf != nil {
		h.pf.demandTouch(lineAddr)
		for _, target := range h.pf.observe(obj, lineAddr) {
			h.issuePrefetch(target, obj)
		}
	}

	if h.l1.Lookup(addr, write) {
		return h.q.Now() + event.Time(h.cfg.L1.LatencyCycles)*cycle, L1Hit, true
	}
	// L1 miss: look up L2 after the L1 latency. The L2 copy stays clean;
	// store dirtiness lives in L1 until eviction.
	if h.l2.Lookup(addr, false) {
		h.fillL1(lineAddr, write)
		return h.q.Now() + event.Time(h.cfg.L1.LatencyCycles+h.cfg.L2.LatencyCycles)*cycle, L2Hit, true
	}
	return 0, 0, false
}

// Promote posts the delivery of an inline-serviced hit (see AccessLoad) as a
// real event in the order slot AccessLoad reserved for it, so the sink's
// AccessDone fires at the hit's completion time.
//
//moca:hotpath
func (h *Hierarchy) Promote(at event.Time, ord uint64, level Level, sink AccessSink, token uint64) {
	op := hopDeliverL1
	if level == L2Hit {
		op = hopDeliverL2
	}
	h.q.PostReserved(at, ord, h, op, int64(token), sink)
}

// missPath is the LLC-miss tail shared by Access and AccessLoad: merge into
// an in-flight MSHR, stall on a full file, or allocate.
//
//moca:hotpath
func (h *Hierarchy) missPath(lineAddr, obj uint64, write bool, sink AccessSink, token uint64) {
	if e := h.mshrs.lookup(lineAddr); e != nil {
		h.stats.MergedMisses++
		if h.obsMerged != nil {
			h.obsMerged.Inc()
		}
		e.dirty = e.dirty || write
		if e.prefetch && h.pf != nil {
			// Demand caught an in-flight prefetch: late but not useless.
			h.pf.stats.Late++
			e.prefetch = false
		}
		if sink != nil {
			e.waiters = append(e.waiters, waiter{sink, token})
		}
		return
	}
	if h.mshrs.len() >= h.mshrLimit(write) {
		h.stats.MSHRFullStalls++
		if h.obsMSHRFull != nil {
			h.obsMSHRFull.Inc()
		}
		if h.obsTrace != nil {
			h.obsTrace.Emit(obs.Event{
				At: h.q.Now(), Kind: obs.MSHRFull,
				Core: h.cfg.Core, Addr: lineAddr,
			})
		}
		if write {
			h.waitW = append(h.waitW, pendingMiss{lineAddr, obj, write, sink, token})
		} else {
			h.waitR = append(h.waitR, pendingMiss{lineAddr, obj, write, sink, token})
		}
		return
	}
	h.allocateMSHR(pendingMiss{lineAddr, obj, write, sink, token})
}

// mshrLimit implements read priority: store write-allocate fetches may not
// occupy the last few MSHRs, so demand loads are never starved by a burst
// of posted stores (the read-over-write priority every real memory system
// applies).
//
//moca:hotpath
func (h *Hierarchy) mshrLimit(write bool) int {
	limit := h.cfg.L2.MSHRs
	if write {
		reserve := limit / 5
		if reserve < 1 {
			reserve = 1
		}
		if limit > reserve {
			limit -= reserve
		}
	}
	return limit
}

//moca:hotpath
func (h *Hierarchy) allocateMSHR(m pendingMiss) {
	e := h.getMSHR()
	e.lineAddr, e.dirty, e.obj = m.lineAddr, m.write, m.obj
	if m.sink != nil {
		e.waiters = append(e.waiters, waiter{m.sink, m.token})
	}
	h.mshrs.insert(m.lineAddr, e)
	h.stats.DemandMisses++
	if h.obsMisses != nil {
		h.obsMisses.Inc()
		h.obsMSHROcc.RecordMax(int64(h.mshrs.len()))
	}
	if h.OnLLCMiss != nil {
		h.OnLLCMiss(m.obj)
	}
	// The request reaches the memory system after both lookup latencies.
	delay := event.Time(h.cfg.L1.LatencyCycles+h.cfg.L2.LatencyCycles) * h.cfg.CPUCycle
	h.q.PostAfter(delay, h, hopSubmit, 0, e)
}

//moca:hotpath
func (h *Hierarchy) submit(e *mshrEntry) {
	if e.submitted {
		return
	}
	ok := h.backend.Submit(e.lineAddr, false, h.cfg.Core, e.obj, h, e.lineAddr)
	if !ok {
		h.stats.BackPressure++
		if h.obsBackPress != nil {
			h.obsBackPress.Inc()
		}
		h.subQ = append(h.subQ, e)
		h.armRetry()
		return
	}
	e.submitted = true
}

//moca:hotpath
func (h *Hierarchy) pumpSubmissions() {
	for len(h.subQ) > 0 {
		e := h.subQ[0]
		h.subQ = h.subQ[1:]
		wasQueued := len(h.subQ)
		h.submit(e)
		if len(h.subQ) > wasQueued {
			return // backend still full; submit re-queued it
		}
	}
}

// issuePrefetch speculatively fetches a line into the L2. Prefetches never
// queue: they are dropped when the line is resident or in flight, or when
// the MSHR file lacks spare capacity beyond a small demand reserve.
//
//moca:hotpath
func (h *Hierarchy) issuePrefetch(lineAddr uint64, obj uint64) {
	if h.l2.Probe(lineAddr) || h.l1.Probe(lineAddr) {
		return
	}
	if h.mshrs.lookup(lineAddr) != nil {
		return
	}
	if h.mshrs.len() >= h.cfg.L2.MSHRs-2 {
		return
	}
	e := h.getMSHR()
	e.lineAddr, e.obj, e.prefetch = lineAddr, obj, true
	h.mshrs.insert(lineAddr, e)
	h.pf.stats.Issued++
	delay := event.Time(h.cfg.L1.LatencyCycles+h.cfg.L2.LatencyCycles) * h.cfg.CPUCycle
	h.q.PostAfter(delay, h, hopSubmit, 0, e)
}

// onFill handles a returning memory line: fill L2 then L1 (maintaining
// inclusion), wake waiters, free the MSHR, and admit stalled misses.
//
//moca:hotpath
func (h *Hierarchy) onFill(e *mshrEntry, at event.Time) {
	if v := h.l2.Fill(e.lineAddr, false); v.Valid {
		// Inclusion: remove the victim from L1; a dirty copy at either
		// level must be written back to memory.
		_, l1Dirty := h.l1.Invalidate(v.Addr)
		if v.Dirty || l1Dirty {
			h.queueWriteback(v.Addr)
		}
		if h.pf != nil {
			h.pf.evicted(v.Addr)
		}
	}
	if e.prefetch {
		// Speculative fill: L2 only, invisible to demand statistics.
		h.pf.markPrefetched(e.lineAddr)
		h.mshrs.remove(e.lineAddr)
		h.putMSHR(e)
		h.admitWaiting()
		h.pumpWritebacks()
		return
	}
	h.fillL1(e.lineAddr, e.dirty)

	h.mshrs.remove(e.lineAddr)
	for _, w := range e.waiters {
		w.sink.AccessDone(w.token, at, MemHit)
	}
	h.putMSHR(e)

	h.admitWaiting()
	h.pumpWritebacks()
}

// admitWaiting admits misses stalled on the MSHR file, loads before stores
// (read priority). A stalled miss may target a line that just became
// present or in-flight again; re-run the full access path.
//
//moca:hotpath
func (h *Hierarchy) admitWaiting() {
	for {
		var m pendingMiss
		if h.waitRHead < len(h.waitR) {
			m = h.waitR[h.waitRHead]
			if h.mshrs.len() >= h.mshrLimit(false) {
				return
			}
			h.waitRHead++
			if h.waitRHead == len(h.waitR) {
				h.waitR = h.waitR[:0]
				h.waitRHead = 0
			}
		} else if h.waitWHead < len(h.waitW) {
			m = h.waitW[h.waitWHead]
			if h.mshrs.len() >= h.mshrLimit(true) {
				return
			}
			h.waitWHead++
			if h.waitWHead == len(h.waitW) {
				h.waitW = h.waitW[:0]
				h.waitWHead = 0
			}
		} else {
			return
		}
		h.reAccess(m)
	}
}

// reAccess re-executes a previously stalled miss without recounting cache
// lookup stats (the miss was already counted when it first accessed).
//
//moca:hotpath
func (h *Hierarchy) reAccess(m pendingMiss) {
	if h.l2.Probe(m.lineAddr) {
		h.fillL1(m.lineAddr, m.write)
		if m.sink != nil {
			m.sink.AccessDone(m.token, h.q.Now(), L2Hit)
		}
		return
	}
	if e := h.mshrs.lookup(m.lineAddr); e != nil {
		h.stats.MergedMisses++
		if h.obsMerged != nil {
			h.obsMerged.Inc()
		}
		e.dirty = e.dirty || m.write
		if m.sink != nil {
			e.waiters = append(e.waiters, waiter{m.sink, m.token})
		}
		return
	}
	h.allocateMSHR(m)
}

// fillL1 inserts a line into L1; a displaced dirty line merges into its L2
// copy (guaranteed present by inclusion).
//
//moca:hotpath
func (h *Hierarchy) fillL1(lineAddr uint64, dirty bool) {
	if v := h.l1.Fill(lineAddr, dirty); v.Valid && v.Dirty {
		if !h.l2.SetDirty(v.Addr) {
			// Inclusion should make this unreachable; never lose data.
			h.queueWriteback(v.Addr)
		}
	}
}

//moca:hotpath
func (h *Hierarchy) queueWriteback(lineAddr uint64) {
	h.stats.Writebacks++
	if h.obsWriteback != nil {
		h.obsWriteback.Inc()
	}
	h.wbQ = append(h.wbQ, lineAddr)
	h.pumpWritebacks()
}

//moca:hotpath
func (h *Hierarchy) pumpWritebacks() {
	for len(h.wbQ) > 0 {
		addr := h.wbQ[0]
		if !h.backend.Submit(addr, true, h.cfg.Core, 0, nil, 0) {
			h.stats.BackPressure++
			if h.obsBackPress != nil {
				h.obsBackPress.Inc()
			}
			h.armRetry()
			return
		}
		h.wbQ = h.wbQ[1:]
	}
}

// InvalidateLine removes a physical line from both levels (page-migration
// shootdown) and reports whether any copy was dirty — the migrator must
// then write the line to the page's new location.
func (h *Hierarchy) InvalidateLine(lineAddr uint64) (present, dirty bool) {
	p1, d1 := h.l1.Invalidate(lineAddr)
	p2, d2 := h.l2.Invalidate(lineAddr)
	if h.pf != nil {
		// The physical line is gone for good (the page now lives in
		// another frame), so its usefulness mark can never be claimed —
		// drop it instead of letting shootdowns leak marks.
		h.pf.evicted(lineAddr)
	}
	return p1 || p2, d1 || d2
}

// armRetry schedules a pump of backpressured work a few cycles out.
//
//moca:hotpath
func (h *Hierarchy) armRetry() {
	if h.retryArmed {
		return
	}
	h.retryArmed = true
	h.q.PostAfter(8*h.cfg.CPUCycle, h, hopRetry, 0, nil)
}
