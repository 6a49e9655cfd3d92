package mem

import (
	"fmt"

	"moca/internal/event"
	"moca/internal/obs"
)

// RowPolicy selects what happens to a row after a CAS completes.
type RowPolicy int

const (
	// OpenPage keeps rows open until a conflict or refresh closes them —
	// best when consecutive requests share rows (the default, and what
	// the paper's FR-FCFS configuration implies).
	OpenPage RowPolicy = iota
	// ClosedPage auto-precharges after every access — lower conflict
	// latency for random traffic at the cost of all row hits.
	ClosedPage
)

func (p RowPolicy) String() string {
	if p == ClosedPage {
		return "closed-page"
	}
	return "open-page"
}

// BankStripe selects where the bank bits sit in the module-local address.
type BankStripe int

const (
	// StripeRowBuffer interleaves banks at row-buffer granularity
	// (RoRaBaChCo, Table I): consecutive row-buffer-sized chunks rotate
	// across banks, so streams exploit bank parallelism.
	StripeRowBuffer BankStripe = iota
	// StripePage places the bank bits above the OS page: an entire 4 KB
	// page maps to one bank — the mapping ablation's strawman.
	StripePage
)

func (b BankStripe) String() string {
	if b == StripePage {
		return "page-stripe"
	}
	return "rowbuf-stripe"
}

// Scheduler selects which pending request a controller serves next.
type Scheduler int

const (
	// FRFCFS is first-ready, first-come-first-served: row-buffer hits are
	// prioritized over older row misses (Table I's scheduling policy).
	FRFCFS Scheduler = iota
	// FCFS serves requests strictly in arrival order. Provided as a
	// baseline for the scheduler ablation study.
	FCFS
)

func (s Scheduler) String() string {
	if s == FCFS {
		return "FCFS"
	}
	return "FR-FCFS"
}

// ChannelConfig configures one memory channel.
type ChannelConfig struct {
	Device        DeviceParams
	CapacityBytes uint64
	Scheduler     Scheduler

	// FrontendLatency is the on-chip interconnect delay from the LLC to
	// the controller; BackendLatency is the return path. Both default to
	// 4 ns, a typical on-chip crossbar traversal.
	FrontendLatency event.Time
	BackendLatency  event.Time

	// MaxQueue bounds the controller read/write queue (default 128). When
	// full, Enqueue reports backpressure and the caller must retry.
	MaxQueue int

	// StarvationLimit caps how long FR-FCFS may bypass the oldest request
	// in favor of row hits; past it the controller serves strictly in
	// order until the oldest request completes. Default 1 us.
	StarvationLimit event.Time

	// RowPolicy selects open- vs closed-page operation (default open).
	RowPolicy RowPolicy
	// BankStripe selects the bank-bit position (default row-buffer
	// granularity, per Table I's RoRaBaChCo).
	BankStripe BankStripe
}

func (c *ChannelConfig) setDefaults() {
	if c.FrontendLatency == 0 {
		c.FrontendLatency = 4 * ns
	}
	if c.BackendLatency == 0 {
		c.BackendLatency = 4 * ns
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 128
	}
	if c.StarvationLimit == 0 {
		c.StarvationLimit = 1 * us
	}
}

type bank struct {
	openRow        int64      // -1 when closed
	casReadyAt     event.Time // tRCD after the last activate
	preAllowedAt   event.Time // tRAS after the last activate
	actAllowedAt   event.Time // tRC after the last activate / tRP after precharge
	preInFlightRow int64      // row being closed, -1 if none

	// Pending requests targeting this bank, in arrival order (intrusive
	// list through Request.nextB/prevB).
	head, tail *Request
	npend      int
	// rowMatch counts pending requests whose row equals openRow (always 0
	// while the bank is closed): the row-hit existence answer issueOne and
	// nextWake need per scan, maintained at enqueue/remove/ACT/PRE/refresh
	// instead of rediscovered by walking the chain.
	rowMatch int
}

// ChannelStats aggregates the activity of one channel.
type ChannelStats struct {
	Reads       uint64
	Writes      uint64
	RowHits     uint64
	RowMisses   uint64 // activate to a closed bank
	RowConflict uint64 // precharge required first
	Activations uint64
	Precharges  uint64
	Refreshes   uint64

	BusBusyTime   event.Time // cumulative data-bus occupancy
	TotalQueueing event.Time // sum of per-request queue delays
	TotalService  event.Time // sum of per-request service times
	TotalLatency  event.Time // sum of per-request total latencies
	MaxQueueDepth int
}

// Requests returns the number of completed requests.
func (s ChannelStats) Requests() uint64 { return s.Reads + s.Writes }

// AvgLatency returns the mean controller-visible latency per request.
func (s ChannelStats) AvgLatency() event.Time {
	n := s.Requests()
	if n == 0 {
		return 0
	}
	return s.TotalLatency / event.Time(n)
}

// RowHitRate returns the fraction of requests served from an open row.
func (s ChannelStats) RowHitRate() float64 {
	n := s.Requests()
	if n == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(n)
}

// Controller models one memory channel: a command scheduler clocked at the
// device clock, per-bank row-buffer state, a shared data bus, and periodic
// refresh. It issues at most Timing.CommandsPerTick commands per clock.
//
// The scheduler is event-driven: instead of polling every device clock
// while requests are pending, the controller computes the earliest clock
// edge at which any command could issue (request arrival, bank timing
// expiry, bus release, starvation onset, refresh deadline) and sleeps until
// then on a single reschedulable wake event. Wakes are not counted as
// events (see event.Queue.ScheduleWake), so the queue's counters see only
// the controller's real completion events.
type Controller struct {
	Name string

	cfg    ChannelConfig
	q      *event.Queue
	banks  []bank
	stats  ChannelStats
	httime Timing // cached timing

	// Pending requests in arrival order (intrusive list through
	// Request.nextQ/prevQ); each request is also on its bank's list.
	qHead, qTail *Request
	qLen         int
	ageSeq       uint64
	freeReq      *Request // recycled pooled requests (EnqueueLine path)

	colBits  uint
	stripe   uint // bank-bit position in the module-local address
	bankBits uint
	bankMask uint64
	lineTime event.Time // data-bus occupancy of one 64 B line

	pendingArrivals int // Enqueued but not yet visible after frontend delay
	busFreeAt       event.Time
	nextRefreshAt   event.Time

	// Wake chain state. A chain is the span from arming (first request
	// visible with the scheduler idle) to the clock edge where the queue
	// empties; it corresponds 1:1 to a self-rescheduling tick chain in the
	// polling model, anchored on the same clock grid.
	chainActive bool
	anchor      event.Time // chain arming time: clock edges are anchor + k*tCK
	wake        event.Handle
	wakeAt      event.Time

	// Observability; all nil (free) unless AttachObs was called. The
	// counters aggregate across every channel attached to one registry.
	obsReads     *obs.Counter
	obsWrites    *obs.Counter
	obsRowHits   *obs.Counter
	obsRowMiss   *obs.Counter
	obsConflicts *obs.Counter
	obsRefreshes *obs.Counter
	obsBackPress *obs.Counter
	obsDepth     *obs.Gauge
	obsLatency   *obs.Histogram
	obsTrace     *obs.Trace
}

// LineBytes is the transfer granularity: one LLC line.
const LineBytes = 64

// NewController builds a channel controller attached to the event queue.
func NewController(name string, q *event.Queue, cfg ChannelConfig) (*Controller, error) {
	cfg.setDefaults()
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	if cfg.CapacityBytes == 0 {
		return nil, fmt.Errorf("mem: %s: zero capacity", name)
	}
	c := &Controller{
		Name:   name,
		cfg:    cfg,
		q:      q,
		banks:  make([]bank, cfg.Device.Geometry.Banks),
		httime: cfg.Device.Timing,
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
		c.banks[i].preInFlightRow = -1
	}
	c.colBits = uint(log2(uint64(cfg.Device.Geometry.RowBufferBytes)))
	c.bankBits = uint(log2(uint64(cfg.Device.Geometry.Banks)))
	c.stripe = c.colBits
	if cfg.BankStripe == StripePage {
		const pageShift = 12
		if c.stripe < pageShift {
			c.stripe = pageShift
		}
	}
	c.bankMask = uint64(cfg.Device.Geometry.Banks - 1)
	// Time to move one 64 B line across a ChannelBits-wide bus moving
	// DataRate beats per clock. At least one clock.
	g := cfg.Device.Geometry
	c.lineTime = event.Time(LineBytes*8) * c.httime.TCK /
		event.Time(g.ChannelBits*cfg.Device.Timing.DataRate)
	if c.lineTime < 1 {
		c.lineTime = 1
	}
	if c.httime.TREFI > 0 {
		c.nextRefreshAt = c.httime.TREFI
	} else {
		c.nextRefreshAt = 1 << 62 // non-volatile: never refresh
	}
	return c, nil
}

// LatencyBucketsPs are the controller-latency histogram bounds (50 ns to
// 6.4 us, doubling) — wide enough to separate row hits from queue-bound
// conflicts on every Table II device.
var LatencyBucketsPs = []uint64{
	50_000, 100_000, 200_000, 400_000, 800_000, 1_600_000, 3_200_000, 6_400_000,
}

// AttachObs registers the channel on the metrics registry ("mem.*"
// counters, the "mem.max_queue_depth" gauge, and the "mem.latency_ps"
// histogram; shared across channels) and the run-trace sink (row-conflict
// events). Nil arguments disable the corresponding instrumentation.
func (c *Controller) AttachObs(r *obs.Registry, tr *obs.Trace) {
	if r == nil {
		c.obsReads, c.obsWrites, c.obsRowHits, c.obsRowMiss = nil, nil, nil, nil
		c.obsConflicts, c.obsRefreshes, c.obsBackPress = nil, nil, nil
		c.obsDepth, c.obsLatency = nil, nil
	} else {
		c.obsReads = r.Counter("mem.reads")
		c.obsWrites = r.Counter("mem.writes")
		c.obsRowHits = r.Counter("mem.row_hits")
		c.obsRowMiss = r.Counter("mem.row_misses")
		c.obsConflicts = r.Counter("mem.row_conflicts")
		c.obsRefreshes = r.Counter("mem.refreshes")
		c.obsBackPress = r.Counter("mem.backpressure")
		c.obsDepth = r.Gauge("mem.max_queue_depth")
		c.obsLatency = r.Histogram("mem.latency_ps", LatencyBucketsPs)
	}
	c.obsTrace = tr
}

// Config returns the channel's configuration.
func (c *Controller) Config() ChannelConfig { return c.cfg }

// Stats returns a snapshot of the channel's statistics.
func (c *Controller) Stats() ChannelStats { return c.stats }

// ResetStats clears accumulated statistics (used to exclude warm-up).
func (c *Controller) ResetStats() { c.stats = ChannelStats{} }

// QueueLen returns the number of requests waiting for service.
func (c *Controller) QueueLen() int { return c.qLen }

// Controller event opcodes (see OnEvent).
const (
	opArrival int32 = iota // p: *Request — frontend delay elapsed
	opPreDone              // i64: bank index — precharge finished
	opDone                 // p: *Request — deliver completion
	opWake                 // scheduler wake: next actionable clock edge
)

// Enqueue presents a request to the channel. It reports false when the
// controller queue is full (backpressure); the caller must retry later.
//
//moca:hotpath
func (c *Controller) Enqueue(r *Request) bool {
	if c.qLen+c.pendingArrivals >= c.cfg.MaxQueue {
		if c.obsBackPress != nil {
			c.obsBackPress.Inc()
		}
		return false
	}
	c.enqueue(r)
	return true
}

// EnqueueLine is the allocation-free submission path: the controller owns
// the Request (recycled through a free list) and completion is delivered to
// sink.MemDone(token, at) instead of a per-request closure. A nil sink
// (writebacks, copy traffic) completes silently.
//
//moca:hotpath
func (c *Controller) EnqueueLine(addr uint64, write bool, core int, obj uint64, sink DoneSink, token uint64) bool {
	if c.qLen+c.pendingArrivals >= c.cfg.MaxQueue {
		if c.obsBackPress != nil {
			c.obsBackPress.Inc()
		}
		return false
	}
	r := c.freeReq
	if r != nil {
		c.freeReq = r.nextQ
		*r = Request{pooled: true}
	} else {
		r = &Request{pooled: true}
	}
	r.Addr, r.Write, r.Core, r.Obj = addr, write, core, obj
	r.sink, r.token = sink, token
	c.enqueue(r)
	return true
}

//moca:hotpath
func (c *Controller) enqueue(r *Request) {
	c.pendingArrivals++
	r.Arrive = c.q.Now() + c.cfg.FrontendLatency
	r.FirstCmd = -1
	c.mapAddress(r)
	// The request becomes visible to the scheduler after the frontend
	// interconnect delay.
	c.q.Post(r.Arrive, c, opArrival, 0, r)
}

//moca:hotpath
func (c *Controller) release(r *Request) {
	if !r.pooled {
		return
	}
	r.nextQ = c.freeReq
	c.freeReq = r
}

// OnEvent implements event.Handler.
//
//moca:hotpath
func (c *Controller) OnEvent(now event.Time, op int32, i64 int64, p any) {
	switch op {
	case opArrival:
		c.onArrival(now, p.(*Request))
	case opPreDone:
		c.onPreDone(now, int(i64))
	case opDone:
		r := p.(*Request)
		if r.sink != nil {
			r.sink.MemDone(r.token, now)
		} else if r.Done != nil {
			r.Done(r, now)
		}
		c.release(r)
	case opWake:
		c.onWake(now)
	}
}

//moca:hotpath
func (c *Controller) onArrival(now event.Time, r *Request) {
	c.pendingArrivals--
	r.qSeq = c.ageSeq
	c.ageSeq++
	if c.qTail != nil {
		c.qTail.nextQ, r.prevQ = r, c.qTail
	} else {
		c.qHead = r
	}
	c.qTail = r
	c.qLen++
	b := &c.banks[r.bank]
	if b.tail != nil {
		b.tail.nextB, r.prevB = r, b.tail
	} else {
		b.head = r
	}
	b.tail = r
	b.npend++
	if b.openRow == int64(r.row) {
		b.rowMatch++
	}
	if c.qLen > c.stats.MaxQueueDepth {
		c.stats.MaxQueueDepth = c.qLen
	}
	if c.obsDepth != nil {
		c.obsDepth.RecordMax(int64(c.qLen))
	}
	if !c.chainActive {
		c.armChain(now)
	} else {
		c.pullWake(now)
	}
}

//moca:hotpath
func (c *Controller) onPreDone(now event.Time, bankIdx int) {
	c.banks[bankIdx].preInFlightRow = -1
	if !c.chainActive {
		if c.qLen == 0 {
			// The polling model would start a chain here that runs one
			// no-op tick and dies; apply its refresh bookkeeping without
			// a wake.
			c.refreshCatchUp(now)
		} else {
			c.armChain(now)
		}
		return
	}
	c.pullWake(now)
}

// armChain starts a wake chain: the polling model's armTick scheduling an
// immediate tick. The wake fires at the current time, after every normal
// event already pending at it, exactly like a zero-delay tick would.
//
//moca:hotpath
func (c *Controller) armChain(now event.Time) {
	c.chainActive = true
	c.anchor = now
	c.wake = c.q.ScheduleWake(now, now, c, opWake)
	c.wakeAt = now
}

// pullWake re-evaluates the next actionable clock edge after a state change
// (arrival, precharge completion) and pulls the pending wake earlier if
// needed. State changes between wakes only ever add options, so the wake
// never moves later here.
//
//moca:hotpath
func (c *Controller) pullWake(now event.Time) {
	at, s := c.nextWake(now, now, false)
	if at < c.wakeAt {
		c.q.RescheduleWake(c.wake, at, s)
		c.wakeAt = at
	}
}

// onWake runs one scheduler activation at a clock edge: refresh
// bookkeeping, then up to CommandsPerTick command issues, then either chain
// death (queue empty) or a sleep until the next actionable edge.
//
//moca:hotpath
func (c *Controller) onWake(now event.Time) {
	c.refreshCatchUp(now)
	issued := 0
	for issued < c.httime.CommandsPerTick {
		if !c.issueOne(now) {
			break
		}
		issued++
	}
	if c.qLen == 0 {
		// Chain dies on the edge where the queue empties, same as the
		// polling model.
		c.chainActive = false
		return
	}
	at, s := c.nextWake(now, now+1, issued == c.httime.CommandsPerTick)
	c.wake = c.q.ScheduleWake(at, s, c, opWake)
	c.wakeAt = at
}

// refreshCatchUp applies refresh intervals that have elapsed: all banks
// close and stay busy for tRFC. Modeled as a bank-timing update, not a
// queued command.
//
//moca:hotpath
func (c *Controller) refreshCatchUp(now event.Time) {
	for now >= c.nextRefreshAt {
		start := c.nextRefreshAt
		for i := range c.banks {
			b := &c.banks[i]
			b.openRow = -1
			b.rowMatch = 0
			b.preInFlightRow = -1
			if t := start + c.httime.TRFC; t > b.actAllowedAt {
				b.actAllowedAt = t
			}
		}
		c.stats.Refreshes++
		if c.obsRefreshes != nil {
			c.obsRefreshes.Inc()
		}
		c.nextRefreshAt += c.httime.TREFI
	}
}

// nextWake computes the earliest clock edge >= lower at which the scheduler
// could issue a command, mirroring every condition the pick functions test:
// CAS readiness and bus release per row-matching request, ACT and PRE bank
// timing expiry, the FR-FCFS starvation boundary (the edge where the
// scheduler switches to in-order service), and the refresh deadline (bank
// state changes there, invalidating any plan made before it). Conservative
// early wakes are harmless no-ops — the polling model visited every edge —
// but a late wake would diverge, so candidates are exact lower bounds.
// cptExhausted marks an activation that used its full command budget: more
// work may be possible on the very next edge.
//
//moca:hotpath
func (c *Controller) nextWake(now, lower event.Time, cptExhausted bool) (at, s event.Time) {
	const far = int64(1) << 62
	best := far
	if cptExhausted {
		best = now + 1
	}
	head := c.qHead
	starved := c.cfg.Scheduler == FRFCFS && now-head.Arrive > c.cfg.StarvationLimit
	if c.cfg.Scheduler == FCFS || starved {
		// In-order service: only the oldest request can issue commands.
		b := &c.banks[head.bank]
		var cand event.Time
		switch {
		case b.openRow == int64(head.row):
			cand = b.casReadyAt
			if t := c.busFreeAt - c.casDelay(head); t > cand {
				cand = t
			}
		case b.openRow == -1:
			// Covers an in-flight precharge too: actAllowedAt was raised
			// to at least the precharge completion when PRE issued.
			cand = b.actAllowedAt
		default:
			// Conflict; with only the head considered, no request can
			// want the open row, so precharge is always permitted.
			cand = b.preAllowedAt
		}
		if cand < best {
			best = cand
		}
	} else {
		// With no write asymmetry casDelay is constant, so every row hit in
		// a bank yields the same candidate time and the first one decides.
		uniform := c.httime.TCASWrite <= 0
		for i := range c.banks {
			if best <= lower {
				// The result is max(best, lower): further banks can only
				// lower best below the clamp, never change the answer.
				break
			}
			b := &c.banks[i]
			if b.npend == 0 {
				continue
			}
			if b.openRow < 0 {
				if b.actAllowedAt < best {
					best = b.actAllowedAt
				}
				continue
			}
			if uniform {
				// casDelay is constant, so the counter alone decides: any
				// row hit yields the same candidate as the first one.
				if b.rowMatch > 0 {
					cand := b.casReadyAt
					if t := c.busFreeAt - c.httime.TCAS; t > cand {
						cand = t
					}
					if cand < best {
						best = cand
					}
				} else if b.preAllowedAt < best {
					best = b.preAllowedAt
				}
				continue
			}
			matched := b.rowMatch > 0
			for r := b.head; r != nil; r = r.nextB {
				if int64(r.row) != b.openRow {
					continue
				}
				cand := b.casReadyAt
				if t := c.busFreeAt - c.casDelay(r); t > cand {
					cand = t
				}
				if cand < best {
					best = cand
				}
			}
			if !matched && b.preAllowedAt < best {
				// No pending request wants the open row: precharge is
				// permitted once tRAS expires.
				best = b.preAllowedAt
			}
		}
		// The edge where the oldest request crosses the starvation limit
		// changes pick behavior even if no bank timing expires.
		if best > lower {
			if t := head.Arrive + c.cfg.StarvationLimit + 1; t < best {
				best = t
			}
		}
	}
	if c.nextRefreshAt < best {
		best = c.nextRefreshAt
	}
	if best < lower {
		best = lower
	}
	// Round up to the chain's clock grid.
	k := (best - c.anchor + c.httime.TCK - 1) / c.httime.TCK
	at = c.anchor + k*c.httime.TCK
	// Virtual schedule time: when the polling model would have scheduled
	// its tick for this edge (one clock earlier, floored at arming).
	s = at - c.httime.TCK
	if s < c.anchor {
		s = c.anchor
	}
	return at, s
}

// mapAddress decodes the module-local RoRaBaChCo address interleave: the
// column bits are the least significant, then the bank bits, then the row.
// (The Ch bits were consumed when the system routed to this channel.)
//
//moca:hotpath
func (c *Controller) mapAddress(r *Request) {
	bankBits := c.bankBits
	stripe := c.stripe
	r.bank = int((r.Addr >> stripe) & c.bankMask)
	// Row bits: everything above the column, with the bank bits removed.
	hi := r.Addr >> c.colBits
	low := hi & ((1 << (stripe - c.colBits)) - 1)
	high := hi >> (stripe - c.colBits + bankBits)
	r.row = (high<<(stripe-c.colBits) | low) % uint64(c.cfg.Device.Geometry.Rows)
}

// issueOne issues the single best command available this cycle, preferring
// CAS (completes a request) over ACT over PRE so data flows as early as
// possible, and returns false if no command could issue. It picks the oldest
// CAS (row hits inherently win under FR-FCFS because conflicting requests
// are not CAS-ready), else the oldest ACT into a closed bank, else the
// oldest PRE of a row nothing pending still wants. All three candidates
// come out of one pass over the banks — per bank the CAS/PRE conditions
// (row open) and the ACT condition (row closed) are mutually exclusive,
// and one chain walk answers both the CAS pick (first row hit that can
// claim the bus) and the PRE row-still-wanted test. The fused scan issues
// exactly what the three separate oldest-first scans would.
//
//moca:hotpath
func (c *Controller) issueOne(now event.Time) bool {
	if c.qHead == nil {
		return false
	}
	// In-order mode considers only the oldest request: always under FCFS,
	// and under FR-FCFS once the oldest has been starved past the limit.
	if c.cfg.Scheduler == FCFS || now-c.qHead.Arrive > c.cfg.StarvationLimit {
		r := c.qHead
		b := &c.banks[r.bank]
		if b.openRow == int64(r.row) && now >= b.casReadyAt && c.busFreeAt <= now+c.casDelay(r) {
			c.issueCAS(now, r)
			return true
		}
		if b.openRow == -1 && b.preInFlightRow == -1 && now >= b.actAllowedAt {
			c.issueACT(now, r)
			return true
		}
		// With only the head considered, no request can want the open row.
		if b.openRow != -1 && b.openRow != int64(r.row) && b.preInFlightRow == -1 &&
			now >= b.preAllowedAt {
			c.issuePRE(now, r)
			return true
		}
		return false
	}
	var cas, act, pre *Request
	for i := range c.banks {
		b := &c.banks[i]
		if b.npend == 0 {
			continue
		}
		if b.openRow == -1 {
			if b.preInFlightRow == -1 && now >= b.actAllowedAt {
				if r := b.head; act == nil || r.qSeq < act.qSeq {
					act = r
				}
			}
			continue
		}
		casReady := now >= b.casReadyAt
		preReady := b.preInFlightRow == -1 && now >= b.preAllowedAt
		if !casReady && !preReady {
			continue
		}
		wanted := b.rowMatch > 0
		if wanted && casReady {
			for r := b.head; r != nil; r = r.nextB {
				if int64(r.row) != b.openRow {
					continue
				}
				if c.busFreeAt <= now+c.casDelay(r) {
					if cas == nil || r.qSeq < cas.qSeq {
						cas = r
					}
					break // older requests in this bank cannot beat r
				}
				// Row hit that cannot claim the bus: keep walking, a
				// later hit with a different burst length may fit.
			}
		}
		if preReady && !wanted {
			if r := b.head; pre == nil || r.qSeq < pre.qSeq {
				pre = r
			}
		}
	}
	if cas != nil {
		c.issueCAS(now, cas)
		return true
	}
	if act != nil {
		c.issueACT(now, act)
		return true
	}
	if pre != nil {
		c.issuePRE(now, pre)
		return true
	}
	return false
}

// casDelay returns the CAS-to-data delay for a request: writes on
// write-asymmetric devices (PCM) take far longer than reads.
//
//moca:hotpath
func (c *Controller) casDelay(r *Request) event.Time {
	if r.Write && c.httime.TCASWrite > 0 {
		return c.httime.TCASWrite
	}
	return c.httime.TCAS
}

//moca:hotpath
func (c *Controller) issueCAS(now event.Time, r *Request) {
	if r.FirstCmd < 0 {
		r.FirstCmd = now
		c.stats.RowHits++
		if c.obsRowHits != nil {
			c.obsRowHits.Inc()
		}
	}
	dataStart := now + c.casDelay(r)
	r.DataFinish = dataStart + c.lineTime
	c.busFreeAt = r.DataFinish
	c.stats.BusBusyTime += c.lineTime
	if c.cfg.RowPolicy == ClosedPage {
		// Auto-precharge: the row closes once tRAS allows, and the next
		// activate waits out tRP from there.
		b := &c.banks[r.bank]
		preAt := b.preAllowedAt
		if r.DataFinish > preAt {
			preAt = r.DataFinish
		}
		b.openRow = -1
		b.rowMatch = 0
		c.stats.Precharges++
		if t := preAt + c.httime.TRP; t > b.actAllowedAt {
			b.actAllowedAt = t
		}
	}
	if r.Write && c.httime.TWR > 0 {
		// Write recovery keeps the bank busy past the burst.
		b := &c.banks[r.bank]
		if t := r.DataFinish + c.httime.TWR; t > b.preAllowedAt {
			b.preAllowedAt = t
		}
		if t := r.DataFinish + c.httime.TWR; t > b.actAllowedAt {
			b.actAllowedAt = t
		}
		if t := r.DataFinish + c.httime.TWR; t > b.casReadyAt {
			// Subsequent CAS to the open row also waits out recovery.
			b.casReadyAt = t
		}
	}

	// Keep the row open (open-page policy); tRAS still gates precharge.
	if r.Write {
		c.stats.Writes++
		if c.obsWrites != nil {
			c.obsWrites.Inc()
		}
	} else {
		c.stats.Reads++
		if c.obsReads != nil {
			c.obsReads.Inc()
		}
	}
	c.stats.TotalQueueing += r.QueueDelay()
	c.stats.TotalService += r.ServiceTime()
	c.stats.TotalLatency += r.TotalLatency()
	if c.obsLatency != nil {
		c.obsLatency.Observe(uint64(r.TotalLatency()))
	}

	c.removeRequest(r)
	if r.sink != nil || r.Done != nil {
		c.q.Post(r.DataFinish+c.cfg.BackendLatency, c, opDone, 0, r)
	} else {
		c.release(r)
	}
}

//moca:hotpath
func (c *Controller) issueACT(now event.Time, r *Request) {
	b := &c.banks[r.bank]
	if r.FirstCmd < 0 {
		r.FirstCmd = now
		c.stats.RowMisses++
		if c.obsRowMiss != nil {
			c.obsRowMiss.Inc()
		}
	}
	b.openRow = int64(r.row)
	b.rowMatch = 0
	for x := b.head; x != nil; x = x.nextB {
		if int64(x.row) == b.openRow {
			b.rowMatch++
		}
	}
	b.casReadyAt = now + c.httime.TRCD
	b.preAllowedAt = now + c.httime.TRAS
	b.actAllowedAt = now + c.httime.TRC
	c.stats.Activations++
}

//moca:hotpath
func (c *Controller) issuePRE(now event.Time, r *Request) {
	b := &c.banks[r.bank]
	if r.FirstCmd < 0 {
		r.FirstCmd = now
		c.stats.RowConflict++
		if c.obsConflicts != nil {
			c.obsConflicts.Inc()
		}
		if c.obsTrace != nil {
			c.obsTrace.Emit(obs.Event{
				At: now, Kind: obs.RowConflict, Unit: c.Name,
				Core: r.Core, Addr: r.Addr,
			})
		}
	}
	b.preInFlightRow = b.openRow
	b.openRow = -1
	b.rowMatch = 0
	c.stats.Precharges++
	done := now + c.httime.TRP
	if done > b.actAllowedAt {
		b.actAllowedAt = done
	}
	c.q.Post(done, c, opPreDone, int64(r.bank), nil)
}

// removeRequest unlinks a served request from the global FIFO and its
// bank's list in O(1).
//
//moca:hotpath
func (c *Controller) removeRequest(r *Request) {
	if r.prevQ != nil {
		r.prevQ.nextQ = r.nextQ
	} else {
		c.qHead = r.nextQ
	}
	if r.nextQ != nil {
		r.nextQ.prevQ = r.prevQ
	} else {
		c.qTail = r.prevQ
	}
	b := &c.banks[r.bank]
	if r.prevB != nil {
		r.prevB.nextB = r.nextB
	} else {
		b.head = r.nextB
	}
	if r.nextB != nil {
		r.nextB.prevB = r.prevB
	} else {
		b.tail = r.prevB
	}
	r.nextQ, r.prevQ, r.nextB, r.prevB = nil, nil, nil, nil
	c.qLen--
	b.npend--
	if b.openRow == int64(r.row) {
		b.rowMatch--
	}
}

// IdealReadLatency returns the unloaded read latency of this channel: a
// closed-bank access with empty queues. Useful for sanity checks and for
// reasoning about classification thresholds.
func (c *Controller) IdealReadLatency() event.Time {
	t := c.httime
	return c.cfg.FrontendLatency + t.TRCD + t.TCAS + c.lineTime + c.cfg.BackendLatency
}

// LineTransferTime returns the data-bus occupancy of one 64 B line.
func (c *Controller) LineTransferTime() event.Time { return c.lineTime }

// PeakBandwidthGBps returns the data-bus peak bandwidth in GB/s
// (64 B line / line transfer time). 1 byte/ps == 1000 GB/s.
func (c *Controller) PeakBandwidthGBps() float64 {
	return float64(LineBytes) / float64(c.lineTime) * 1000.0
}

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
