package cpu

import (
	"fmt"
	"slices"
	"testing"

	"moca/internal/cache"
	"moca/internal/event"
)

// splitmix is a tiny deterministic generator for the differential test.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mixedStream builds a seeded stream of compute batches (1-40), independent
// and dependent loads, and stores.
func mixedStream(seed uint64, n int) []Instr {
	r := splitmix(seed)
	ins := make([]Instr, 0, n)
	for len(ins) < n {
		v := r.next()
		switch x := v % 100; {
		case x < 55:
			ins = append(ins, Instr{Kind: Compute, N: int32(1 + (v>>8)%40)})
		case x < 85:
			ins = append(ins, Instr{Kind: Load, VAddr: (v >> 16) % (1 << 20), Obj: (v >> 8) % 4, DependsOnPrev: (v>>40)%3 == 0})
		default:
			ins = append(ins, Instr{Kind: Store, VAddr: (v >> 16) % (1 << 20), Obj: (v >> 8) % 4})
		}
	}
	return ins
}

// seededMem serves loads with seeded latencies: about half inline (an
// L1/L2 hit reported to AccessLoad's caller with a reserved order slot),
// the rest completed through AccessDone events, some of them as LLC misses.
// Decisions depend only on the call sequence, so two cores that behave
// identically see identical memory.
type seededMem struct {
	q *event.Queue
	r splitmix
}

type memDone struct {
	sink  cache.AccessSink
	token uint64
	level cache.Level
}

func (*seededMem) OnEvent(now event.Time, _ int32, _ int64, p any) {
	d := p.(*memDone)
	d.sink.AccessDone(d.token, now, d.level)
}

func (m *seededMem) Access(uint64, uint64, bool, cache.AccessSink, uint64) {}

func (m *seededMem) AccessLoad(_ uint64, _ uint64, sink cache.AccessSink, token uint64) (event.Time, uint64, cache.Level, bool) {
	v := m.r.next()
	jitter := event.Time(v>>32) % event.Nanosecond
	now := m.q.Now()
	switch x := v % 100; {
	case x < 50:
		lat := event.Time(1+(v>>8)%5)*event.Nanosecond + jitter
		return now + lat, m.q.Reserve(), cache.L1Hit + cache.Level((v>>16)%2), true
	case x < 80:
		lat := event.Time(10+(v>>8)%20)*event.Nanosecond + jitter
		m.q.Post(now+lat, m, 0, 0, &memDone{sink, token, cache.L2Hit})
	default:
		lat := event.Time(60+(v>>8)%240)*event.Nanosecond + jitter
		m.q.Post(now+lat, m, 0, 0, &memDone{sink, token, cache.MemHit})
	}
	return 0, 0, 0, false
}

func (m *seededMem) Promote(at event.Time, ord uint64, level cache.Level, sink cache.AccessSink, token uint64) {
	m.q.PostReserved(at, ord, m, 0, 0, &memDone{sink, token, level})
}

// ffRun is what one drive of a core observed.
type ffRun struct {
	stats    Stats
	retired  uint64
	memLoads [][2]uint64 // (obj, head-stall cycles) per OnMemLoadRetire
	crossAt  event.Time
	batched  int // cycles advanced by FastForward
}

// driveCore runs a core over ins until it is done. With batch unset it
// ticks every cycle; with batch set it mirrors the simulator's tryBatch:
// FastForward up to the earlier of the window end and the next queued
// event, with the remaining instructions to the quota as the budget, and a
// TickAt when nothing batches.
func driveCore(t *testing.T, ins []Instr, seed uint64, window int, target uint64, batch bool) ffRun {
	t.Helper()
	q := event.NewQueue()
	m := &seededMem{q: q, r: splitmix(seed ^ 0x5eed)}
	c, err := New(0, DefaultConfig(), &sliceStream{ins: ins}, &identityXlate{}, m)
	if err != nil {
		t.Fatal(err)
	}
	var run ffRun
	c.OnRetire = func(n uint64) { run.retired += n }
	c.OnMemLoadRetire = func(obj, stalls uint64) {
		run.memLoads = append(run.memLoads, [2]uint64{obj, stalls})
	}
	cycle := c.cfg.Cycle
	span := event.Time(window) * cycle
	crossed := false
	cross := func(at event.Time) {
		if !crossed && c.Instructions() >= target {
			crossed = true
			run.crossAt = at
		}
	}
	for t0, guard := event.Time(0), 0; !c.Done(); guard++ {
		if guard > 10_000_000 {
			t.Fatalf("core did not finish (stats %+v)", c.Stats())
		}
		q.RunUntil(t0)
		if batch {
			end := (t0/span + 1) * span
			if nt, ok := q.NextTime(); ok && nt < end {
				end = nt
			}
			budget := ^uint64(0)
			if !crossed {
				budget = target - c.Instructions()
			}
			if end > t0 {
				if n, retired := c.FastForward(t0, end, budget); n > 0 {
					// Every cycle paid lies strictly before end, and the
					// core clock is left on the last of them.
					if last := t0 + event.Time(n-1)*cycle; last >= end || c.now != last {
						t.Fatalf("FastForward(%d, %d) paid %d cycles: last %d, core clock %d", t0, end, n, last, c.now)
					}
					run.batched += n
					t0 += event.Time(n) * cycle
					if retired > 0 {
						cross(t0)
					}
					continue
				}
			}
		}
		c.TickAt(t0)
		t0 += cycle
		cross(t0)
	}
	run.stats = c.Stats()
	return run
}

// TestFastForwardMatchesTick drives two cores over the same seeded stream
// and memory: one ticks every cycle, the other batches through FastForward
// wherever the simulator would. Stats, OnRetire totals, the sequence of
// OnMemLoadRetire reports and the quota-crossing cycle must all match.
func TestFastForwardMatchesTick(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		ins := mixedStream(seed, 6000)
		var total uint64
		for _, in := range ins {
			if in.Kind == Compute {
				total += uint64(in.N)
			} else {
				total++
			}
		}
		window := 1 + int(seed*37%200)
		for _, target := range []uint64{1, 3, 100, 1001, total / 2, total - 1, total} {
			name := fmt.Sprintf("seed%d/target%d", seed, target)
			a := driveCore(t, ins, seed, window, target, false)
			b := driveCore(t, ins, seed, window, target, true)
			if a.stats != b.stats {
				t.Errorf("%s: stats differ\ntick:  %+v\nbatch: %+v", name, a.stats, b.stats)
			}
			if a.retired != b.retired || a.retired != total {
				t.Errorf("%s: OnRetire totals tick %d, batch %d, want %d", name, a.retired, b.retired, total)
			}
			if !slices.Equal(a.memLoads, b.memLoads) {
				t.Errorf("%s: OnMemLoadRetire sequences differ (%d vs %d reports)", name, len(a.memLoads), len(b.memLoads))
			}
			if a.crossAt != b.crossAt {
				t.Errorf("%s: quota crossed at %d (tick) vs %d (batch)", name, a.crossAt, b.crossAt)
			}
			if b.batched == 0 {
				t.Errorf("%s: FastForward never batched a cycle", name)
			}
		}
	}
}
