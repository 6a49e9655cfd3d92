package sim

// Windowed execution (DESIGN.md "Windowed execution").
//
// The system is partitioned into shards that each own a private event
// queue: one shard per core (cpu, L1/L2, private TLB state) and one per
// memory channel (controller + banks). Time advances in fixed windows of
// windowCycles CPU cycles, and each window runs four phases in order on
// one goroutine: (A) channel shards, (B) completed fills posted into core
// queues, (C) core shards in lockstep, (D) the coordinator queue and the
// barrier merge. All cross-shard traffic is staged as timestamped messages
// and exchanged only at the window boundary, merged in a fixed order
// (at, source shard, per-source sequence).
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
// to a memory channel at a window barrier.
type linkMsg struct {
	at    event.Time // effect time: staging time + one window
	line  uint64     // global physical line address (migration monitor)
	local uint64     // channel-local address
	write bool
	sink  bool // deliver the completion back to the owning core
	core  int
	obj   uint64
	token uint64
	src   int    // source shard: core index, len(cores) for migration
	seq   uint64 // per-source staging order
}

// shardLink is the cache.Backend a core shard submits misses, writebacks,
// and (for the migration engine) copy traffic through. It never exerts
// backpressure: rejection and retry live channel-side, after the message
// has paid the link latency.
type shardLink struct {
	q      *event.Queue
	route  *router
	delay  event.Time
	src    int
	seq    uint64
	staged int         // messages staged since the last barrier merge
	out    [][]linkMsg // staged messages, per channel
}

// Submit implements cache.Backend. The concrete sink is dropped: a
// completion is routed back to msg.core's hierarchy by the channel shard.
func (l *shardLink) Submit(lineAddr uint64, write bool, core int, obj uint64, sink mem.DoneSink, token uint64) bool {
	ch, local := l.route.locate(lineAddr)
	l.out[ch] = append(l.out[ch], linkMsg{
		at: l.q.Now() + l.delay, line: lineAddr, local: local,
		write: write, sink: sink != nil, core: core, obj: obj, token: token,
		src: l.src, seq: l.seq,
	})
	l.seq++
	l.staged++
	return true
}

// fillMsg is one completed memory request waiting to be delivered into its
// core's queue at the next barrier.
type fillMsg struct {
	at    event.Time
	core  int
	token uint64
}

// Channel-shard event opcodes.
const (
	chopDeliver int32 = iota // i64 = inbox index of the arriving linkMsg
	chopRetry                // retry backpressured submissions
)

// chanShard owns one memory controller and its private event queue. It
// applies barrier-merged submissions at their exact effect times, holds
// rejected ones in an arrival-ordered pending queue with paced retries,
// and stages completions for the coordinator to post back to core queues.
type chanShard struct {
	idx   int
	q     *event.Queue
	ctrl  *mem.Controller
	cycle event.Time

	inbox      []linkMsg // this window's deliveries, indexed by chopDeliver i64
	pending    []linkMsg // rejected submissions, retried in arrival order
	pendHead   int
	retryArmed bool

	fills []fillMsg      // completions staged for the coordinator
	sinks []mem.DoneSink // pre-boxed per-core completion sinks
	bp    []uint64       // per-core rejected-submission counts

	// reg and dropCtr count migration copies abandoned under controller
	// backpressure (the best-effort path) in the mem.migration_copy_drops
	// obs counter, so the loss is observable.
	reg     *obs.Registry
	dropCtr *obs.Counter
}

// chanSink stages one core's completions on its channel shard.
type chanSink struct {
	cs   *chanShard
	core int
}

// MemDone implements mem.DoneSink.
func (s *chanSink) MemDone(token uint64, at event.Time) {
	s.cs.fills = append(s.cs.fills, fillMsg{at: at, core: s.core, token: token})
}

func newChanShard(idx int, ctrlBuild func(q *event.Queue) (*mem.Controller, error), cores int, cycle event.Time) (*chanShard, error) {
	cs := &chanShard{idx: idx, q: event.NewQueue(), cycle: cycle, bp: make([]uint64, cores)}
	ctrl, err := ctrlBuild(cs.q)
	if err != nil {
		return nil, err
	}
	cs.ctrl = ctrl
	for c := 0; c < cores; c++ {
		cs.sinks = append(cs.sinks, &chanSink{cs: cs, core: c})
	}
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
	if cs.pendHead < len(cs.pending) {
		// Preserve per-channel arrival order behind earlier rejections.
		cs.pending = append(cs.pending, m)
		cs.armRetry(now)
		return
	}
	cs.try(now, m)
}

func (cs *chanShard) try(now event.Time, m linkMsg) {
	var sink mem.DoneSink
	if m.sink {
		sink = cs.sinks[m.core]
	}
	if cs.ctrl.EnqueueLine(m.local, m.write, m.core, m.obj, sink, m.token) {
		return
	}
	if m.core < 0 {
		// Migration copy traffic is best-effort under backpressure.
		cs.dropCopy()
		return
	}
	cs.bp[m.core]++
	cs.pending = append(cs.pending, m)
	cs.armRetry(now)
}

func (cs *chanShard) drainPending(now event.Time) {
	for cs.pendHead < len(cs.pending) {
		m := cs.pending[cs.pendHead]
		var sink mem.DoneSink
		if m.sink {
			sink = cs.sinks[m.core]
		}
		if !cs.ctrl.EnqueueLine(m.local, m.write, m.core, m.obj, sink, m.token) {
			if m.core < 0 {
				// Queued migration copies stay best-effort: drop instead
				// of blocking demand traffic behind them.
				cs.dropCopy()
				cs.pendHead++
				continue
			}
			cs.bp[m.core]++
			cs.armRetry(now)
			return
		}
		cs.pendHead++
	}
	cs.pending = cs.pending[:0]
	cs.pendHead = 0
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
	copFill int32 = iota // i64 = token: a barrier-delivered memory completion
)

// OnEvent implements event.Handler: barrier-delivered completions enter
// the hierarchy at their exact completion times.
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

		// Phase A: channel shards run their half of the window.
		if err := s.runChannelPhase(windowEnd); err != nil {
			return err
		}
		// Phase B: completed requests enter core queues at exact times.
		s.distributeFills()
		// Phase C: core shards run the window cycle by cycle.
		s.runCorePhase(windowEnd, target, onCross)
		// Phase D: barrier. The coordinator queue (migration epochs and
		// copy pacing) runs first so its staged traffic joins this merge.
		if we := windowEnd - 1; s.q.QuietUntil(we) {
			s.q.AdvanceTo(we)
		} else {
			s.q.RunUntil(we)
		}
		s.mergeCrossings()
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
// channel queue carries an absolute future time. A panic is recovered into
// an error keyed to the shard that was running.
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
		// submission's staging time inside the window that merges it.
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

// distributeFills posts every completion the channel shards staged into
// the owning cores' queues, merged across channels by (at, channel, seq)
// so insertion order — and therefore same-timestamp execution order — is
// deterministic.
func (s *System) distributeFills() {
	total := 0
	for _, cs := range s.chans {
		total += len(cs.fills)
	}
	if total == 0 {
		return
	}
	buf := s.fillScratch[:0]
	for ci, cs := range s.chans {
		for _, f := range cs.fills {
			buf = append(buf, chanFill{fillMsg: f, ch: ci, seq: len(buf)})
		}
		cs.fills = cs.fills[:0]
	}
	// Insertion sort, like sortLinkMsgs: barrier batches are small and
	// sort.Slice would allocate a closure every window.
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && chanFillLess(buf[j], buf[j-1]); j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	for _, f := range buf {
		c := s.cores[f.core]
		c.q.Post(f.at, c, copFill, int64(f.token), nil)
	}
	s.fillScratch = buf[:0]
}

// chanFill tags a staged fill with its merge key.
type chanFill struct {
	fillMsg
	ch  int
	seq int
}

// chanFillLess orders staged fills by (at, channel, staging order).
func chanFillLess(a, b chanFill) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.ch != b.ch {
		return a.ch < b.ch
	}
	return a.seq < b.seq
}

// mergeCrossings applies every staged core->channel (and migration)
// submission to its channel shard in (at, source shard, seq) order: the
// window-merge contract the fuzz target locks down. The migration
// monitor's access counter fires here too, in merged order.
func (s *System) mergeCrossings() {
	staged := 0
	for _, l := range s.links {
		staged += l.staged
		l.staged = 0
	}
	if staged == 0 {
		return // nothing crossed this window (common during long stalls)
	}
	for ci, cs := range s.chans {
		m := mergeWindow(s.linkScratch[:0], s.links, ci)
		s.linkScratch = m
		cs.inbox = cs.inbox[:0]
		for _, msg := range m {
			if s.route.onAccess != nil {
				s.route.onAccess(msg.line)
			}
			cs.inbox = append(cs.inbox, msg)
			cs.q.Post(msg.at, cs, chopDeliver, int64(len(cs.inbox)-1), nil)
		}
	}
}

// mergeWindow collects channel ci's staged messages from every link,
// clears the stages, and returns them sorted by (at, src, seq). The result
// is a pure function of the per-link message sets, independent of the
// order the links are listed in (FuzzWindowMerge).
func mergeWindow(dst []linkMsg, links []*shardLink, ci int) []linkMsg {
	for _, l := range links {
		dst = append(dst, l.out[ci]...)
		l.out[ci] = l.out[ci][:0]
	}
	sortLinkMsgs(dst)
	return dst
}

// sortLinkMsgs orders messages by (at, src, seq). Insertion sort: window
// batches are small (a handful of LLC misses), and this avoids the
// per-call closure allocation of sort.Slice on a hot barrier path.
func sortLinkMsgs(m []linkMsg) {
	for i := 1; i < len(m); i++ {
		for j := i; j > 0 && linkMsgLess(m[j], m[j-1]); j-- {
			m[j], m[j-1] = m[j-1], m[j]
		}
	}
}

func linkMsgLess(a, b linkMsg) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
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
