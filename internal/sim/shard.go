package sim

// Windowed execution (DESIGN.md "Windowed execution").
//
// The system is partitioned into shards that each own a private event
// queue: one shard per core (cpu, L1/L2, private TLB state) and one per
// memory channel (controller + banks). Time advances in fixed windows of
// windowCycles CPU cycles, and each window runs three phases in order on
// one goroutine: (A) channel shards, (B) core shards in lockstep, (C) the
// coordinator queue (migration epochs and copy pacing). Every cross-shard
// message is posted straight into its destination queue when it is staged;
// queues break timestamp ties by post order, and the phase order fixes
// that order: channels complete fills in channel order, cores stage
// submissions in ascending core order within each lockstep cycle, and the
// migration engine stages after every core.
//
// Every core->channel submission traverses a link with a fixed latency of
// one window, so a message staged at local time t carries effect time
// t+window >= windowEnd and always lands in a strictly later channel
// window. That latency is a model parameter (BehaviorVersion 3), not just
// scheduling. Channel->core completions need no added latency because
// channel shards run their half of window k before core shards do: a fill
// completed at time t in [T, T+W) is posted into the owning core's queue
// before that core executes cycle t.

import (
	"context"
	"fmt"
	"sort"

	"moca/internal/alloc"
	"moca/internal/event"
	"moca/internal/mem"
	"moca/internal/obs"
)

// windowCycles is the time-window length in CPU cycles. It is also the
// modeled interconnect latency of the core->channel link, so it shapes
// timing, not just scheduling.
const windowCycles = 8

// chanRetryGap is the backoff, in CPU cycles, before a channel shard
// retries submissions the controller rejected (mirrors the retry pacing
// the cache hierarchy used when it faced the controller directly).
const chanRetryGap = 8

// linkMsg is one submission crossing from a core (or the migration engine)
// to a memory channel.
type linkMsg struct {
	line  uint64 // global physical line address (migration monitor)
	local uint64 // channel-local address
	write bool
	sink  bool // deliver the completion back to the owning core
	core  int
	obj   uint64
	token uint64
}

// shardLink is the cache.Backend a core shard submits misses, writebacks,
// and (for the migration engine) copy traffic through. It never exerts
// backpressure: rejection and retry live channel-side, after the message
// has paid the link latency.
type shardLink struct {
	q     *event.Queue // the submitting shard's queue (staging time)
	route *router
	chans []*chanShard
	delay event.Time
}

// Submit implements cache.Backend: the message is posted into its channel's
// queue one link latency after the staging time. The concrete sink is
// dropped: a completion is routed back to msg.core's hierarchy by the
// channel shard.
func (l *shardLink) Submit(lineAddr uint64, write bool, core int, obj uint64, sink mem.DoneSink, token uint64) bool {
	ch, local := l.route.locate(lineAddr)
	cs := l.chans[ch]
	cs.inbox = append(cs.inbox, linkMsg{
		line: lineAddr, local: local,
		write: write, sink: sink != nil, core: core, obj: obj, token: token,
	})
	cs.q.Post(l.q.Now()+l.delay, cs, chopDeliver, int64(len(cs.inbox)-1), nil)
	return true
}

// Channel-shard event opcodes.
const (
	chopDeliver int32 = iota // i64 = inbox index of the arriving linkMsg
	chopRetry                // retry backpressured submissions
)

// chanShard owns one memory controller and its private event queue. It
// applies link submissions at their exact effect times, holds rejected
// ones in an arrival-ordered pending queue with paced retries, and
// completes requests straight into the owning core's queue.
type chanShard struct {
	q     *event.Queue
	ctrl  *mem.Controller
	cycle event.Time

	inbox      []linkMsg // deliveries in flight, indexed by chopDeliver i64
	pending    []linkMsg // rejected submissions, retried in arrival order
	pendHead   int
	retryArmed bool

	sinks   []mem.DoneSink  // per-core completion sinks (the core shards)
	bp      []uint64        // per-core rejected-submission counts
	monitor *alloc.Migrator // migration access monitor, nil unless PolicyMigrate

	// reg and dropCtr count migration copies abandoned under controller
	// backpressure (the best-effort path) in the mem.migration_copy_drops
	// obs counter, so the loss is observable.
	reg     *obs.Registry
	dropCtr *obs.Counter
}

// newChanShard builds the shard for one channel serving cores cores. The
// core shards attach themselves as its completion sinks once they exist.
func newChanShard(ctrlBuild func(q *event.Queue) (*mem.Controller, error), cores int, cycle event.Time) (*chanShard, error) {
	cs := &chanShard{q: event.NewQueue(), cycle: cycle, bp: make([]uint64, cores)}
	ctrl, err := ctrlBuild(cs.q)
	if err != nil {
		return nil, err
	}
	cs.ctrl = ctrl
	return cs, nil
}

// OnEvent implements event.Handler.
func (cs *chanShard) OnEvent(now event.Time, op int32, i64 int64, _ any) {
	switch op {
	case chopDeliver:
		cs.deliver(now, cs.inbox[i64])
	case chopRetry:
		cs.retryArmed = false
		cs.drainPending(now)
	}
}

func (cs *chanShard) deliver(now event.Time, m linkMsg) {
	if cs.monitor != nil {
		cs.monitor.RecordAccess(m.line)
	}
	if cs.pendHead < len(cs.pending) {
		// Preserve per-channel arrival order behind earlier rejections.
		cs.pending = append(cs.pending, m)
		cs.armRetry(now)
		return
	}
	cs.try(now, m)
}

func (cs *chanShard) try(now event.Time, m linkMsg) {
	if cs.enqueue(m) {
		return
	}
	cs.pending = append(cs.pending, m)
	cs.armRetry(now)
}

func (cs *chanShard) drainPending(now event.Time) {
	for cs.pendHead < len(cs.pending) {
		if !cs.enqueue(cs.pending[cs.pendHead]) {
			cs.armRetry(now)
			return
		}
		cs.pendHead++
	}
	cs.pending = cs.pending[:0]
	cs.pendHead = 0
}

// enqueue offers m to the controller. It reports false only for demand
// traffic the controller rejected, counting the rejection against m.core;
// the caller then holds m for a retry. A rejected migration copy is
// best-effort: it is dropped instead of blocking demand traffic behind it,
// and reported as handled.
func (cs *chanShard) enqueue(m linkMsg) bool {
	var sink mem.DoneSink
	if m.sink {
		sink = cs.sinks[m.core]
	}
	if cs.ctrl.EnqueueLine(m.local, m.write, m.core, m.obj, sink, m.token) {
		return true
	}
	if m.core < 0 {
		cs.dropCopy()
		return true
	}
	cs.bp[m.core]++
	return false
}

// dropCopy records one migration copy abandoned under backpressure. The
// counter is registered lazily on the first drop so runs that never drop
// keep their metrics snapshots unchanged.
func (cs *chanShard) dropCopy() {
	if cs.reg != nil {
		if cs.dropCtr == nil {
			cs.dropCtr = cs.reg.Counter("mem.migration_copy_drops")
		}
		cs.dropCtr.Inc()
	}
}

func (cs *chanShard) armRetry(now event.Time) {
	if cs.retryArmed {
		return
	}
	cs.retryArmed = true
	cs.q.PostAfter(chanRetryGap*cs.cycle, cs, chopRetry, 0, nil)
}

// Core-shard event opcodes (coreCtx is the handler).
const (
	copFill int32 = iota // i64 = token: a memory completion from a channel shard
)

// MemDone implements mem.DoneSink for the channel shards: a completed
// request is posted into the core's queue at its exact completion time.
// Channel shards run their half of a window first, so that time is never
// behind the core's clock.
func (c *coreCtx) MemDone(token uint64, at event.Time) {
	c.q.Post(at, c, copFill, int64(token), nil)
}

// OnEvent implements event.Handler: completions enter the hierarchy at
// their exact completion times.
func (c *coreCtx) OnEvent(now event.Time, op int32, i64 int64, _ any) {
	if op == copFill {
		c.hier.MemDone(uint64(i64), now)
	}
}

// runPhase advances the system in windows until every core has retired
// target instructions beyond its current count, calling onCross(core, at)
// once per core at its exact crossing cycle.
func (s *System) runPhase(ctx context.Context, target uint64, onCross func(*coreCtx, event.Time)) error {
	if target == 0 {
		return nil
	}
	for _, c := range s.cores {
		c.base = c.core.Instructions()
		c.crossed = false
		c.counted = false
		c.frozen = false
		c.tickAt = s.simNow
	}
	remaining := len(s.cores)
	done := ctx.Done()
	// Watchdog: generous IPC floor of 1/400 plus fixed slack.
	maxCycles := target*400 + 50_000_000
	var cycles, windows uint64
	for remaining > 0 {
		if s.cfg.Progress != nil && windows&63 == 0 {
			s.reportProgress(target)
		}
		windows++
		if cycles > maxCycles {
			crossed := 0
			for _, c := range s.cores {
				if c.crossed {
					crossed++
				}
			}
			return fmt.Errorf("sim: %s: watchdog expired after %d cycles (%d/%d cores finished %d instructions)",
				s.cfg.Name, cycles, crossed, len(s.cores), target)
		}
		if done != nil {
			select {
			case <-done:
				return fmt.Errorf("sim: %s: canceled after %d cycles: %w", s.cfg.Name, cycles, ctx.Err())
			default:
			}
		}
		windowEnd := s.simNow + s.window

		// Phase A: channel shards run their half of the window, posting
		// completions into core queues at exact times.
		if err := s.runChannelPhase(windowEnd); err != nil {
			return err
		}
		// Phase B: core shards run the window cycle by cycle.
		s.runCorePhase(windowEnd, target, onCross)
		// Phase C: the coordinator queue (migration epochs and copy
		// pacing), whose copy traffic posts behind every core's.
		if we := windowEnd - 1; s.q.QuietUntil(we) {
			s.q.AdvanceTo(we)
		} else {
			s.q.RunUntil(we)
		}
		for _, c := range s.cores {
			if c.runErr != nil {
				return c.runErr
			}
			if c.crossed && !c.counted {
				c.counted = true
				remaining--
				if c.frozen {
					// Backpressure now accrues channel-side; fold the
					// rejected-submission count into the frozen snapshot.
					c.snapshot.Hier.BackPressure += s.bpFor(c.proc)
				}
			}
		}
		s.simNow = windowEnd
		cycles += uint64(s.window / s.cycle)
	}
	if s.cfg.Progress != nil {
		s.reportProgress(target)
	}
	return nil
}

// reportProgress invokes the Progress hook with the run's completion so
// far: the slowest core's clamped per-phase progress plus the credit from
// completed phases. Runs at a window barrier.
func (s *System) reportProgress(target uint64) {
	min := target
	for _, c := range s.cores {
		n := c.core.Instructions() - c.base
		if n > target {
			// Cores past their quota keep executing for contention; their
			// surplus is not phase progress.
			n = target
		}
		if n < min {
			min = n
		}
	}
	done := s.progressBase + min
	if done > s.progressTotal {
		done = s.progressTotal
	}
	s.cfg.Progress(done, s.progressTotal)
}

// ObsSnapshot captures the live metrics registry (nil-safe: empty when
// metrics are disabled). Safe only from a Config.Progress callback — which
// runs at a window barrier — or after the run returns; calling it from
// another goroutine mid-run is a data race.
func (s *System) ObsSnapshot() *obs.Snapshot {
	return s.reg.Snapshot()
}

// runChannelPhase drains every channel shard's queue up to the window
// horizon. Idle shards — empty queue, an idle controller by construction —
// only advance their clocks, which is safe because every post into a
// channel queue carries an absolute future time. Every message in a
// shard's inbox was staged in the previous window and so has been
// delivered by the end of its run: the inbox starts over for the messages
// this window stages. A panic is recovered into an error keyed to the
// shard that was running.
func (s *System) runChannelPhase(windowEnd event.Time) (err error) {
	cur := -1
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: %s: channel shard %s: panic: %v", s.cfg.Name, s.chans[cur].ctrl.Name, r)
		}
	}()
	we := windowEnd - 1
	for ci, cs := range s.chans {
		cur = ci
		// Quiet guard: most windows a channel only holds a wake scheduled
		// beyond the bound, and the inlined check replaces the call.
		if cs.q.QuietUntil(we) {
			cs.q.AdvanceTo(we)
		} else {
			cs.q.RunUntil(we)
		}
		cs.inbox = cs.inbox[:0]
	}
	return nil
}

// runCorePhase advances every core shard through one window, one cycle at
// a time in ascending core order, so page faults occur in (cycle, core)
// order. A panicking core shard is recovered into a keyed error on that
// core, and the remaining cores skip the rest of the window.
//
// A core may batch ahead of the lockstep cycle t (tryBatch): c.tickAt is
// its private clock cursor (the next cycle it still has to execute), and
// cycles below it are skipped. Batched spans are proven fault-free (no
// memory ops, no translations), so batching cannot reorder any page fault.
func (s *System) runCorePhase(windowEnd event.Time, target uint64, onCross func(*coreCtx, event.Time)) {
	cur := -1
	defer func() {
		if r := recover(); r != nil {
			c := s.cores[cur]
			c.runErr = fmt.Errorf("sim: %s: core shard %d (%s): panic: %v", s.cfg.Name, cur, c.app.Spec.Name, r)
			c.dead = true
		}
	}()
	for t := windowEnd - s.window; t < windowEnd; {
		// next is the earliest cycle any core still has to execute: when
		// every core is batched ahead of t the loop jumps straight to it
		// instead of walking the skipped cycles one by one. A core's queue
		// holds no events inside its batched span (tryBatch bounded the
		// batch by NextTime and nothing external posts mid-phase), so the
		// jump cannot run an event late.
		next := windowEnd
		for i, c := range s.cores {
			if c.dead {
				continue
			}
			if c.tickAt > t {
				if c.tickAt < next {
					next = c.tickAt
				}
				continue // a batch already executed this cycle
			}
			cur = i
			if c.q.QuietUntil(t) {
				c.q.AdvanceTo(t)
			} else {
				c.q.RunUntil(t)
			}
			if n := s.tryBatch(c, t, windowEnd, target, onCross); n > 0 {
				if c.tickAt < next {
					next = c.tickAt
				}
				continue
			}
			c.core.TickAt(t)
			c.tickAt = t + s.cycle
			next = t + s.cycle
			if err := c.core.Err(); err != nil {
				c.fail(s, i, err)
				continue
			}
			if c.crossed {
				continue
			}
			if c.core.Instructions()-c.base >= target {
				c.crossed = true
				if onCross != nil {
					onCross(c, t+s.cycle)
				}
			} else if c.core.Done() {
				// The stream ran dry before the quota: this core can never
				// cross, so fail now instead of spinning into the watchdog.
				// A replayed trace that ended on a decode error reports
				// that error, not a bare end-of-stream.
				short := target - (c.core.Instructions() - c.base)
				if serr := streamErr(c.stream); serr != nil {
					c.fail(s, i, fmt.Errorf("trace decode: %w", serr))
				} else {
					c.fail(s, i, fmt.Errorf("instruction stream ended %d instructions short of its %d quota", short, target))
				}
			}
		}
		t = next
	}
	for i, c := range s.cores {
		if c.dead {
			continue
		}
		// Drain the sub-cycle remainder: controller completion times are
		// not cycle-aligned, so fills can spawn hierarchy events that land
		// between the last tick (windowEnd-cycle) and the window end. They
		// belong to this window — running them now keeps every link
		// submission's staging time inside this window, so it is
		// delivered in the next one.
		cur = i
		if we := windowEnd - 1; c.q.QuietUntil(we) {
			c.q.AdvanceTo(we)
		} else {
			c.q.RunUntil(we)
		}
	}
}

// tryBatch retires a run of cycles for core c in one call, starting at
// cycle t. The batch is bounded by the window barrier and by the core's
// next queued event (an inline hit has no event: it matures by clock
// comparison inside FastForward). The budget
// stops the batch on the exact cycle the instruction quota is crossed, so
// onCross observes the same timestamp the per-cycle loop would have
// produced. Returns the number of cycles batched (0: fall back to a
// normal tick).
//
//moca:hotpath
func (s *System) tryBatch(c *coreCtx, t, windowEnd event.Time, target uint64, onCross func(*coreCtx, event.Time)) int {
	end := windowEnd
	if nt, ok := c.q.NextTime(); ok && nt < end {
		end = nt
	}
	if end <= t {
		return 0
	}
	budget := ^uint64(0)
	if !c.crossed {
		budget = target - (c.core.Instructions() - c.base)
	}
	n, retired := c.core.FastForward(t, end, budget)
	if n == 0 {
		return 0
	}
	c.tickAt = t + event.Time(n)*s.cycle
	if retired > 0 && !c.crossed && c.core.Instructions()-c.base >= target {
		c.crossed = true
		if onCross != nil {
			onCross(c, c.tickAt)
		}
	}
	return n
}

// fail marks the core dead with a keyed error.
func (c *coreCtx) fail(s *System, i int, err error) {
	c.runErr = fmt.Errorf("sim: %s core %d (%s): %w", s.cfg.Name, i, c.app.Spec.Name, err)
	c.dead = true
}

// bpFor sums core's channel-side rejected submissions across channels.
func (s *System) bpFor(core int) uint64 {
	var n uint64
	for _, cs := range s.chans {
		n += cs.bp[core]
	}
	return n
}

// resetShardStats clears the window-accounting the shards accumulate on
// behalf of core statistics (the warmup/measure boundary).
func (s *System) resetShardStats() {
	for _, cs := range s.chans {
		for i := range cs.bp {
			cs.bp[i] = 0
		}
	}
}

// flushTrace merges the per-shard run-trace stages into the user's sink in
// (timestamp, stage, staging order) order. Stage IDs are fixed (0 =
// OS/coordinator, then cores, then channels), so the merged stream is a
// pure function of per-stage content.
func (s *System) flushTrace() {
	if s.runTrace == nil || len(s.traceStages) == 0 {
		return
	}
	type staged struct {
		ev    obs.Event
		stage int
		seq   int
	}
	var all []staged
	var dropped uint64
	for si, st := range s.traceStages {
		for i, ev := range st.Events() {
			all = append(all, staged{ev: ev, stage: si, seq: i})
		}
		dropped += st.Dropped()
		st.Reset()
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ev.At != all[j].ev.At {
			return all[i].ev.At < all[j].ev.At
		}
		if all[i].stage != all[j].stage {
			return all[i].stage < all[j].stage
		}
		return all[i].seq < all[j].seq
	})
	for _, e := range all {
		s.runTrace.Emit(e.ev)
	}
	s.runTrace.AddDropped(dropped)
}
