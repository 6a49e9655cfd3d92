package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"moca/internal/event"
)

// wakeRun is one controller run over a seeded request stream: per-request
// command and completion times, and the channel's final statistics.
type wakeRun struct {
	first, finish, done []event.Time
	stats               ChannelStats
}

// runWakeStream builds a controller for cfg, feeds it a random request
// stream drawn from seed, and steps the queue one event at a time until
// every request has completed. With poll set, the controller polls: each
// activation that leaves requests pending is followed by one on the very
// next clock edge, so it ticks once per device clock while requests are
// pending — the model DESIGN.md says the wake chain reproduces. After every
// event the busy-bank mask is checked against the bank queues.
func runWakeStream(t *testing.T, cfg ChannelConfig, seed int64, poll bool) wakeRun {
	t.Helper()
	q := event.NewQueue()
	c, err := NewController("t", q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Device.Geometry
	rowSpan := uint64(g.RowBufferBytes) * uint64(g.Banks)
	rng := rand.New(rand.NewSource(seed))
	const n = 400
	out := wakeRun{
		first:  make([]event.Time, n),
		finish: make([]event.Time, n),
		done:   make([]event.Time, n),
	}
	submit := func(id int, addr uint64, write bool) {
		r := &Request{Addr: addr % cfg.CapacityBytes, Write: write}
		r.Done = func(r *Request, at event.Time) {
			out.first[id], out.finish[id], out.done[id] = r.FirstCmd, r.DataFinish, at
		}
		if !c.Enqueue(r) {
			t.Fatalf("request %d rejected: queue full", id)
		}
	}
	// Bursts of row-local streams, same-bank row conflicts and scattered
	// lines, with idle gaps long enough for chains to die and for refresh
	// deadlines to pass; a quarter are writes, and some lines are
	// silent writebacks through the pooled path.
	at := event.Time(0)
	for id := 0; id < n; {
		at += event.Time(rng.Intn(3)) * event.Time(rng.Intn(400)+1) * ns
		if rng.Intn(6) == 0 {
			at += event.Time(rng.Intn(3)+1) * us
		}
		burst := rng.Intn(24) + 1
		kind := rng.Intn(3)
		base := uint64(rng.Int63())
		for k := 0; k < burst && id < n; k, id = k+1, id+1 {
			var addr uint64
			switch kind {
			case 0: // row-local stream
				addr = base + uint64(k)*LineBytes
			case 1: // one bank, a few rows
				addr = base%rowSpan + uint64(rng.Intn(4))*rowSpan
			default:
				addr = uint64(rng.Int63())
			}
			addr &^= LineBytes - 1
			write := rng.Intn(4) == 0
			when := at + event.Time(rng.Intn(3))*ns
			id := id
			q.Schedule(when, func() { submit(id, addr, write) })
			if rng.Intn(8) == 0 {
				wb := uint64(rng.Int63()) &^ (LineBytes - 1) % cfg.CapacityBytes
				q.Schedule(when, func() {
					if !c.EnqueueLine(wb, true, 0, 0, nil, 0) {
						t.Fatal("writeback rejected: queue full")
					}
				})
			}
		}
	}

	tck := cfg.Device.Timing.TCK
	for {
		prev := c.wake
		if !q.RunOne() {
			break
		}
		if now := q.Now(); poll && c.chainActive && c.wake != prev && c.wakeAt > now+tck {
			// The activation at now scheduled its successor past the next
			// edge: tick on that edge instead, as a polling model would.
			q.RescheduleWake(c.wake, now+tck, now)
			c.wakeAt = now + tck
		}
		checkBusyMask(t, c)
	}
	for id, d := range out.done {
		if d == 0 {
			t.Fatalf("request %d never completed", id)
		}
	}
	out.stats = c.Stats()
	return out
}

// checkBusyMask fails t unless bit i of c.busy is set exactly when bank i
// has pending requests.
func checkBusyMask(t *testing.T, c *Controller) {
	t.Helper()
	for i := range c.banks {
		set := c.busy[i>>6]&(1<<(i&63)) != 0
		if set != (c.banks[i].npend > 0) {
			t.Fatalf("at %d ps: bank %d busy bit %v with %d pending", c.q.Now(), i, set, c.banks[i].npend)
		}
	}
}

// TestWakeMatchesPolling: the event-driven controller, which sleeps until
// the next edge where a command could issue, completes every request at
// the same picosecond and ends with the same statistics as a controller
// polled every device clock — on every preset, under FR-FCFS and FCFS,
// open and closed page, and both bank stripes.
func TestWakeMatchesPolling(t *testing.T) {
	for _, kind := range Kinds() {
		for _, sched := range []Scheduler{FRFCFS, FCFS} {
			for _, rp := range []RowPolicy{OpenPage, ClosedPage} {
				for _, stripe := range []BankStripe{StripeRowBuffer, StripePage} {
					for _, seed := range []int64{1, 2, 3} {
						cfg := ChannelConfig{
							Device: Preset(kind), CapacityBytes: 1 << 28, Scheduler: sched,
							MaxQueue: 1024, RowPolicy: rp, BankStripe: stripe,
						}
						if seed%2 == 0 {
							// Starve the oldest request often.
							cfg.StarvationLimit = 150 * ns
						}
						name := fmt.Sprintf("%v/%v/%v/%v/seed%d", kind, sched, rp, stripe, seed)
						t.Run(name, func(t *testing.T) {
							polled := runWakeStream(t, cfg, seed, true)
							woken := runWakeStream(t, cfg, seed, false)
							for id := range polled.done {
								if p, w := polled.done[id], woken.done[id]; p != w ||
									polled.first[id] != woken.first[id] || polled.finish[id] != woken.finish[id] {
									t.Fatalf("request %d: polled first cmd %d, data end %d, done %d; woken %d, %d, %d",
										id, polled.first[id], polled.finish[id], p, woken.first[id], woken.finish[id], w)
								}
							}
							if polled.stats != woken.stats {
								t.Fatalf("stats differ:\npolled %+v\nwoken  %+v", polled.stats, woken.stats)
							}
						})
					}
				}
			}
		}
	}
}
