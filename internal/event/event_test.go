package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"moca/internal/obs"
)

func TestScheduleOrdering(t *testing.T) {
	q := NewQueue()
	var got []int
	q.Schedule(30, func() { got = append(got, 3) })
	q.Schedule(10, func() { got = append(got, 1) })
	q.Schedule(20, func() { got = append(got, 2) })
	q.Drain()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if q.Now() != 30 {
		t.Errorf("Now() = %d, want 30", q.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	q := NewQueue()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(100, func() { got = append(got, i) })
	}
	q.Drain()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestRunUntil(t *testing.T) {
	q := NewQueue()
	ran := 0
	for _, at := range []Time{5, 10, 15, 20} {
		q.Schedule(at, func() { ran++ })
	}
	if n := q.RunUntil(12); n != 2 {
		t.Fatalf("RunUntil(12) executed %d, want 2", n)
	}
	if q.Now() != 12 {
		t.Errorf("Now() = %d, want 12", q.Now())
	}
	if q.Len() != 2 {
		t.Errorf("Len() = %d, want 2", q.Len())
	}
	if n := q.RunUntil(100); n != 2 {
		t.Fatalf("RunUntil(100) executed %d, want 2", n)
	}
	if ran != 4 {
		t.Errorf("total ran = %d, want 4", ran)
	}
}

func TestRunUntilIncludesCascades(t *testing.T) {
	q := NewQueue()
	var got []Time
	q.Schedule(5, func() {
		got = append(got, 5)
		q.Schedule(7, func() { got = append(got, 7) })
		q.Schedule(50, func() { got = append(got, 50) })
	})
	if n := q.RunUntil(10); n != 2 {
		t.Fatalf("RunUntil executed %d events, want 2 (cascaded event within window)", n)
	}
	if len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("got %v, want [5 7]", got)
	}
}

func TestAfter(t *testing.T) {
	q := NewQueue()
	var at Time = -1
	q.Schedule(100, func() {
		q.After(25, func() { at = q.Now() })
	})
	q.Drain()
	if at != 125 {
		t.Errorf("After fired at %d, want 125", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	q := NewQueue()
	q.Schedule(100, func() {})
	q.RunOne()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	q.Schedule(50, func() {})
}

func TestNextTime(t *testing.T) {
	q := NewQueue()
	if _, ok := q.NextTime(); ok {
		t.Fatal("NextTime on empty queue reported an event")
	}
	q.Schedule(42, func() {})
	if at, ok := q.NextTime(); !ok || at != 42 {
		t.Fatalf("NextTime = (%d,%v), want (42,true)", at, ok)
	}
}

func TestRunOneEmpty(t *testing.T) {
	q := NewQueue()
	if q.RunOne() {
		t.Fatal("RunOne on empty queue reported execution")
	}
}

func TestExecutedCount(t *testing.T) {
	q := NewQueue()
	for i := Time(0); i < 100; i++ {
		q.Schedule(i, func() {})
	}
	q.Drain()
	if q.Executed() != 100 {
		t.Errorf("Executed() = %d, want 100", q.Executed())
	}
}

// Property: events always execute in nondecreasing time order, matching the
// sorted schedule, regardless of insertion order.
func TestPropertyHeapOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		q := NewQueue()
		var got []Time
		for _, raw := range times {
			at := Time(raw)
			q.Schedule(at, func() { got = append(got, at) })
		}
		q.Drain()
		want := make([]Time, len(times))
		for i, raw := range times {
			want[i] = Time(raw)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: interleaving Schedule and RunOne never yields an event executed
// at a time earlier than one already executed.
func TestPropertyMonotonicNow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewQueue()
	var last Time = -1
	violated := false
	pending := 0
	for step := 0; step < 5000; step++ {
		if pending == 0 || rng.Intn(2) == 0 {
			q.Schedule(q.Now()+Time(rng.Intn(1000)), func() {
				if q.Now() < last {
					violated = true
				}
				last = q.Now()
			})
			pending++
		} else {
			q.RunOne()
			pending--
		}
	}
	q.Drain()
	if violated {
		t.Fatal("executed an event at a time earlier than a previous event")
	}
}

// TestSameTimeStormAcrossPopPaths schedules a large same-timestamp burst —
// the worst case for heap tie-breaking — and checks strict FIFO order on
// each pop path (RunOne, RunUntil, Drain), including events scheduled from
// inside handlers at the same timestamp.
func TestSameTimeStormAcrossPopPaths(t *testing.T) {
	const storm = 500
	pop := map[string]func(q *Queue){
		"RunOne": func(q *Queue) {
			for q.RunOne() {
			}
		},
		"RunUntil": func(q *Queue) { q.RunUntil(100) },
		"Drain":    func(q *Queue) { q.Drain() },
	}
	for name, run := range pop {
		t.Run(name, func(t *testing.T) {
			q := NewQueue()
			var got []int
			for i := 0; i < storm; i++ {
				i := i
				q.Schedule(100, func() {
					got = append(got, i)
					if i%10 == 0 {
						// Cascade at the same timestamp: runs after every
						// already-scheduled event, in schedule order.
						j := storm + i
						q.Schedule(100, func() { got = append(got, j) })
					}
				})
			}
			run(q)
			if len(got) != storm+storm/10 {
				t.Fatalf("executed %d events, want %d", len(got), storm+storm/10)
			}
			for i := 1; i < len(got); i++ {
				// Schedule order is execution order, so the recorded ids of
				// the initial burst ascend, then the cascaded ids ascend.
				if got[i] < got[i-1] && !(got[i-1] >= storm && got[i] < storm) {
					t.Fatalf("FIFO violated at %d: %d after %d", i, got[i], got[i-1])
				}
			}
			for i := 0; i < storm; i++ {
				if got[i] != i {
					t.Fatalf("initial burst out of order at %d: got %d", i, got[i])
				}
			}
		})
	}
}

// TestScheduleAtNow: an event may be scheduled for exactly the current time
// (e.g. a controller pulling its wake to "immediately"); it runs within the
// same RunUntil window.
func TestScheduleAtNow(t *testing.T) {
	q := NewQueue()
	ran := false
	q.Schedule(50, func() {
		q.Schedule(q.Now(), func() { ran = true })
	})
	q.RunUntil(50)
	if !ran {
		t.Fatal("event scheduled at Now() did not run in the same window")
	}
}

// TestPoolReuseAfterDrain: records recycled by Drain are reused by later
// schedules instead of growing the pool arena.
func TestPoolReuseAfterDrain(t *testing.T) {
	q := NewQueue()
	const n = 128
	for i := 0; i < n; i++ {
		q.Schedule(Time(i), func() {})
	}
	q.Drain()
	if len(q.pool) != n {
		t.Fatalf("pool holds %d records after %d events", len(q.pool), n)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			q.PostAfter(Time(i), runFunc, 0, 0, Func(func() {}))
		}
		q.Drain()
	}
	if len(q.pool) != n {
		t.Fatalf("pool grew to %d records; free-list recycling broken", len(q.pool))
	}
}

// countHandler counts pooled-event deliveries and checks payload plumbing.
type countHandler struct {
	n    int
	last int64
}

func (h *countHandler) OnEvent(_ Time, op int32, i64 int64, p any) {
	h.n++
	h.last = i64
}

// TestPostZeroAlloc gates the pooled hot path at zero allocations per
// event once the arena is warm.
func TestPostZeroAlloc(t *testing.T) {
	q := NewQueue()
	h := &countHandler{}
	// Warm the pool so the arena append is excluded.
	q.Post(0, h, 0, 0, nil)
	q.RunOne()
	if avg := testing.AllocsPerRun(1000, func() {
		q.Post(q.Now()+10, h, 1, 42, nil)
		q.RunOne()
	}); avg != 0 {
		t.Fatalf("Post/RunOne allocates %.1f per event, want 0", avg)
	}
	if h.last != 42 {
		t.Fatalf("payload i64 = %d, want 42", h.last)
	}
}

// TestWakeOrdering: at the same timestamp, wakes run after every normal
// event, ordered among themselves by virtual schedule time then arming
// order; rescheduling keeps the arming order; a fired handle is stale.
func TestWakeOrdering(t *testing.T) {
	q := NewQueue()
	var got []int64
	rec := func(id int64) Handler {
		return recordHandler{&got, id}
	}
	// Arm wakes first so a FIFO-by-seq queue would run them first.
	q.ScheduleWake(100, 90, rec(3), 0) // later virtual schedule time
	q.ScheduleWake(100, 80, rec(2), 0) // earlier virtual schedule time
	q.Post(100, rec(1), 0, 0, nil)     // normal event: must run first
	q.Drain()
	want := []int64{1, 2, 3}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("execution order %v, want %v", got, want)
	}
	if q.Executed() != 1 {
		t.Errorf("Executed() = %d, want 1 (wakes uncounted)", q.Executed())
	}

	hd := q.ScheduleWake(200, 190, rec(4), 0)
	q.RescheduleWake(hd, 150, 149)
	q.Drain()
	if got[len(got)-1] != 4 {
		t.Fatalf("rescheduled wake did not run: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("rescheduling a fired wake did not panic")
		}
	}()
	q.RescheduleWake(hd, 300, 299)
}

// TestReservedSlotOrder: an event posted into a slot reserved before two
// same-timestamp posts runs ahead of them, and counts once in the
// scheduled and executed counters; an unused reservation counts nothing.
func TestReservedSlotOrder(t *testing.T) {
	q := NewQueue()
	reg := obs.NewRegistry()
	q.AttachObs(reg)
	var got []int64
	ord := q.Reserve()
	q.Reserve() // never used
	q.Post(100, recordHandler{&got, 2}, 0, 0, nil)
	q.Post(100, recordHandler{&got, 3}, 0, 0, nil)
	q.PostReserved(100, ord, recordHandler{&got, 1}, 0, 0, nil)
	q.Drain()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order %v, want [1 2 3]", got)
	}
	snap := reg.Snapshot()
	if s, e := snap.Counters["event.scheduled"], snap.Counters["event.executed"]; s != 3 || e != 3 {
		t.Errorf("scheduled/executed = %d/%d, want 3/3", s, e)
	}
	if q.Executed() != 3 {
		t.Errorf("Executed() = %d, want 3", q.Executed())
	}
}

type recordHandler struct {
	out *[]int64
	id  int64
}

func (h recordHandler) OnEvent(Time, int32, int64, any) { *h.out = append(*h.out, h.id) }

// BenchmarkQueue measures the pooled Post/RunOne hot path; the companion
// TestPostZeroAlloc gates it at 0 allocs/op.
func BenchmarkQueue(b *testing.B) {
	q := NewQueue()
	h := &countHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Post(q.Now()+Time(i%64), h, 0, int64(i), nil)
		if q.Len() > 1024 {
			q.RunOne()
		}
	}
	q.Drain()
}

func BenchmarkScheduleRun(b *testing.B) {
	q := NewQueue()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		q.Schedule(q.Now()+Time(i%64), fn)
		if q.Len() > 1024 {
			q.RunOne()
		}
	}
	q.Drain()
}
