// Package event provides the discrete-event simulation core used by every
// timed component in the simulator (memory controllers, refresh timers,
// response delivery). It is a minimal replacement for the event queue at the
// heart of architectural simulators such as Gem5.
//
// Time is measured in integer picoseconds so that memory-device clocks that
// are not integer nanoseconds (e.g. RLDRAM3 tCK = 0.93 ns) can be expressed
// exactly enough, while a 1 GHz CPU cycle is exactly 1000 ps.
//
// The queue is allocation-free on the hot path: events are pooled records in
// a growable arena recycled through a free list, ordered by an intrusive
// 4-ary heap of pool indices. Components implement Handler and pass a small
// (op, i64, p) payload instead of allocating a closure per event; the
// closure-based Schedule/After API remains for cold paths and tests.
package event

import "moca/internal/obs"

// Time is a simulation timestamp in picoseconds.
type Time = int64

// Common durations, in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Func is the body of a closure-scheduled event.
type Func func()

// Handler receives pooled events. now is the event's timestamp; op, i64,
// and p are the payload given at scheduling time. Pointer-shaped payloads
// (pointers, interfaces, funcs) convert to any without allocating.
type Handler interface {
	OnEvent(now Time, op int32, i64 int64, p any)
}

// funcRunner adapts the legacy closure API onto Handler.
type funcRunner struct{}

func (funcRunner) OnEvent(_ Time, _ int32, _ int64, p any) { p.(Func)() }

var runFunc Handler = funcRunner{}

// rec is one pooled event record. pos is its index in the heap (-1 when
// free), making reschedules O(log n) without search.
type rec struct {
	at   Time
	s    Time   // wake ordering: virtual schedule time (see ScheduleWake)
	ord  uint64 // FIFO tie-break: schedule order (wakes: arming order)
	i64  int64
	h    Handler
	p    any
	op   int32
	pos  int32
	gen  uint32
	wake bool
}

// Handle names a pending wake event for rescheduling. The generation field
// detects (and panics on) use after the wake has fired.
type Handle struct {
	idx int32
	gen uint32
}

// NilHandle is the zero Handle; it never names a pending wake.
var NilHandle = Handle{idx: -1}

// Queue is a time-ordered event queue. Events scheduled for the same
// timestamp run in the order they were scheduled. Queue is not safe for
// concurrent use; the simulator is single-threaded by design so that runs
// are exactly reproducible.
type Queue struct {
	pool []rec
	free []int32
	heap []int32
	seq  uint64
	now  Time
	runs uint64

	// minAt caches the heap head's timestamp (farFuture when the heap is
	// empty), so the per-cycle QuietUntil guard and the per-batch NextTime
	// bound are a field load instead of a pool pointer chase. Every heap
	// mutation keeps it current.
	minAt Time

	// Observability instruments; nil (free) unless AttachObs was called.
	obsScheduled *obs.Counter
	obsExecuted  *obs.Counter
	obsDepth     *obs.Gauge
}

// farFuture is the cached-minimum sentinel for "nothing pending".
const farFuture = Time(1) << 62

// NewQueue returns an empty queue positioned at time 0.
func NewQueue() *Queue { return &Queue{minAt: farFuture} }

// AttachObs registers the queue's instruments on the registry: the
// "event.scheduled" / "event.executed" counters and the
// "event.max_queue_depth" high-watermark gauge. A nil registry detaches.
func (q *Queue) AttachObs(r *obs.Registry) {
	if r == nil {
		q.obsScheduled, q.obsExecuted, q.obsDepth = nil, nil, nil
		return
	}
	q.obsScheduled = r.Counter("event.scheduled")
	q.obsExecuted = r.Counter("event.executed")
	q.obsDepth = r.Gauge("event.max_queue_depth")
}

// Now returns the timestamp of the most recently executed event, or the
// time passed to the latest RunUntil, whichever is later.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events (wakes included).
func (q *Queue) Len() int { return len(q.heap) }

// Executed returns the total number of events executed so far; wake events
// are excluded.
func (q *Queue) Executed() uint64 { return q.runs }

//moca:hotpath
func (q *Queue) alloc() int32 {
	if n := len(q.free); n > 0 {
		i := q.free[n-1]
		q.free = q.free[:n-1]
		return i
	}
	q.pool = append(q.pool, rec{})
	return int32(len(q.pool) - 1)
}

//moca:hotpath
func (q *Queue) releaseRec(i int32) {
	r := &q.pool[i]
	r.h, r.p = nil, nil
	r.pos = -1
	r.gen++
	q.free = append(q.free, i)
}

// Post enqueues a pooled event for Handler h at the given absolute time.
// Scheduling in the past is a simulator bug; it panics rather than silently
// reordering time. Post performs no allocation when p is pointer-shaped.
//
//moca:hotpath
func (q *Queue) Post(at Time, h Handler, op int32, i64 int64, p any) {
	q.PostReserved(at, q.Reserve(), h, op, i64, p)
}

// Reserve takes the next event-order slot without scheduling anything. A
// completion serviced inline (an L1/L2 hit whose latency is already known)
// reserves one at the time the event would have been posted, so that if it
// must become a real event after all (PostReserved) it runs in the same
// order relative to the events posted in between. An unused reservation
// costs nothing and is never counted.
//
//moca:hotpath
func (q *Queue) Reserve() uint64 {
	ord := q.seq
	q.seq++
	return ord
}

// PostReserved is Post into an order slot taken earlier by Reserve: among
// events at the same timestamp it runs in reservation order, ahead of any
// event posted after the reservation.
//
//moca:hotpath
func (q *Queue) PostReserved(at Time, ord uint64, h Handler, op int32, i64 int64, p any) {
	if at < q.now {
		panic("event: scheduled in the past")
	}
	i := q.alloc()
	r := &q.pool[i]
	r.at, r.s, r.ord, r.wake = at, 0, ord, false
	r.h, r.op, r.i64, r.p = h, op, i64, p
	q.push(i)
	if q.obsScheduled != nil {
		q.obsScheduled.Inc()
		q.obsDepth.RecordMax(int64(len(q.heap)))
	}
}

// PostAfter enqueues a pooled event delay picoseconds after the current time.
//
//moca:hotpath
func (q *Queue) PostAfter(delay Time, h Handler, op int32, i64 int64, p any) {
	q.Post(q.now+delay, h, op, i64, p)
}

// Schedule enqueues fn to run at the given absolute time (closure API; the
// closure itself is the only allocation).
func (q *Queue) Schedule(at Time, fn Func) { q.Post(at, runFunc, 0, 0, fn) }

// After enqueues fn to run delay picoseconds after the current time.
func (q *Queue) After(delay Time, fn Func) { q.Schedule(q.now+delay, fn) }

// ScheduleWake enqueues a wake event: a reschedulable timer a component uses
// to sleep until its next state change. Wakes differ from normal events in
// three ways:
//
//   - they are excluded from the scheduled/executed counters;
//   - at equal timestamps they sort after every normal event, then among
//     themselves by (s, arming order), where s is the time the equivalent
//     polled event would have been scheduled (at minus one device clock,
//     floored at the chain's arming time);
//   - they can be pulled earlier in place through the returned Handle.
//
//moca:hotpath
func (q *Queue) ScheduleWake(at, s Time, h Handler, op int32) Handle {
	if at < q.now {
		panic("event: wake scheduled in the past")
	}
	i := q.alloc()
	r := &q.pool[i]
	r.at, r.s, r.ord, r.wake = at, s, q.seq, true
	r.h, r.op, r.i64, r.p = h, op, 0, nil
	q.seq++
	q.push(i)
	if q.obsDepth != nil {
		q.obsDepth.RecordMax(int64(len(q.heap)))
	}
	return Handle{idx: i, gen: r.gen}
}

// RescheduleWake moves a pending wake to a new time, keeping its arming
// order. It panics if the handle's wake already fired (stale handle).
//
//moca:hotpath
func (q *Queue) RescheduleWake(hd Handle, at, s Time) {
	if at < q.now {
		panic("event: wake rescheduled into the past")
	}
	if hd.idx < 0 || int(hd.idx) >= len(q.pool) {
		panic("event: invalid wake handle")
	}
	r := &q.pool[hd.idx]
	if r.gen != hd.gen || !r.wake || r.pos < 0 {
		panic("event: stale wake handle")
	}
	r.at, r.s = at, s
	if !q.up(int(r.pos)) {
		q.down(int(r.pos))
	}
	q.refreshMin()
}

// NextTime returns the timestamp of the earliest pending event and true,
// or (0, false) if the queue is empty. The core uses it to bound compute
// batches by the next event that can change state.
//
//moca:hotpath
func (q *Queue) NextTime() (Time, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.minAt, true
}

// RunOne executes the earliest pending event, advancing Now to its
// timestamp. It reports whether an event was executed.
//
//moca:hotpath
func (q *Queue) RunOne() bool {
	if len(q.heap) == 0 {
		return false
	}
	i := q.heap[0]
	r := &q.pool[i]
	at, h, op, i64, p, wake := r.at, r.h, r.op, r.i64, r.p, r.wake
	q.popMin()
	q.releaseRec(i)
	q.now = at
	if !wake {
		q.runs++
		if q.obsExecuted != nil {
			q.obsExecuted.Inc()
		}
	}
	h.OnEvent(at, op, i64, p)
	return true
}

// QuietUntil reports whether RunUntil(t) would be a pure clock advance:
// no event to run inside the bound. Callers on the shard loops pair it
// with AdvanceTo to skip the RunUntil call — the two halves together
// replicate exactly what RunUntil does in that case, so the guarded and
// unguarded forms are interchangeable call for call. Both halves are small
// enough to inline.
//
//moca:hotpath
func (q *Queue) QuietUntil(t Time) bool {
	return q.minAt > t
}

// refreshMin recomputes the cached earliest pending timestamp after a
// removal or reschedule; the peek is trivial next to the heap work those
// already did.
//
//moca:hotpath
func (q *Queue) refreshMin() {
	q.minAt = farFuture
	if len(q.heap) > 0 {
		q.minAt = q.pool[q.heap[0]].at
	}
}

// AdvanceTo moves the clock forward to t without running anything. Only
// valid when QuietUntil(t) holds; see QuietUntil.
//
//moca:hotpath
func (q *Queue) AdvanceTo(t Time) {
	if q.now < t {
		q.now = t
	}
}

// RunUntil executes every event with timestamp <= t (including events those
// events schedule, if they also fall within t) and then advances Now to t.
// It returns the number of events executed.
//
//moca:hotpath
func (q *Queue) RunUntil(t Time) int {
	n := 0
	// RunOne's body, inlined: the simulator calls RunUntil once per shard
	// per window, so the per-event peek/call overhead is hot.
	for len(q.heap) > 0 {
		i := q.heap[0]
		r := &q.pool[i]
		if r.at > t {
			break
		}
		at, h, op, i64, p, wake := r.at, r.h, r.op, r.i64, r.p, r.wake
		q.popMin()
		q.releaseRec(i)
		q.now = at
		if !wake {
			q.runs++
			if q.obsExecuted != nil {
				q.obsExecuted.Inc()
			}
		}
		h.OnEvent(at, op, i64, p)
		n++
	}
	if q.now < t {
		q.now = t
	}
	return n
}

// Drain runs events until the queue is empty and returns the number
// executed. Useful at the end of a simulation to let in-flight memory
// traffic settle.
func (q *Queue) Drain() int {
	n := 0
	for q.RunOne() {
		n++
	}
	return n
}

// less orders the heap: time first, then normal events before wakes, then
// FIFO by schedule order (wakes: virtual schedule time, then arming order).
//
//moca:hotpath
func (q *Queue) less(a, b int32) bool {
	ra, rb := &q.pool[a], &q.pool[b]
	if ra.at != rb.at {
		return ra.at < rb.at
	}
	if ra.wake != rb.wake {
		return rb.wake
	}
	if ra.wake && ra.s != rb.s {
		return ra.s < rb.s
	}
	return ra.ord < rb.ord
}

//moca:hotpath
func (q *Queue) push(i int32) {
	q.heap = append(q.heap, i)
	pos := len(q.heap) - 1
	q.pool[i].pos = int32(pos)
	q.up(pos)
	// Inserting can only lower the minimum, and to exactly this record's
	// timestamp — no need for refreshMin's head read.
	if at := q.pool[i].at; at < q.minAt {
		q.minAt = at
	}
}

//moca:hotpath
func (q *Queue) popMin() {
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap[0] = moved
	q.pool[moved].pos = 0
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	q.refreshMin()
}

// up sifts the element at heap position i toward the root; it reports
// whether the element moved.
//
//moca:hotpath
func (q *Queue) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 4
		if !q.less(q.heap[i], q.heap[parent]) {
			break
		}
		q.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

//moca:hotpath
func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		smallest := i
		first := 4*i + 1
		end := first + 4
		if end > n {
			end = n
		}
		for c := first; c < end; c++ {
			if q.less(q.heap[c], q.heap[smallest]) {
				smallest = c
			}
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}

//moca:hotpath
func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pool[q.heap[i]].pos = int32(i)
	q.pool[q.heap[j]].pos = int32(j)
}
