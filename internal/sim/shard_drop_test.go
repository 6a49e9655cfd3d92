package sim

import (
	"testing"

	"moca/internal/cpu"
	"moca/internal/event"
	"moca/internal/mem"
	"moca/internal/obs"
)

// dropTestShard builds a chanShard over a 1-slot controller so a single
// in-flight request exerts backpressure on everything behind it.
func dropTestShard(t *testing.T, reg *obs.Registry) *chanShard {
	t.Helper()
	cycle := cpu.DefaultConfig().Cycle
	cs, err := newChanShard(func(q *event.Queue) (*mem.Controller, error) {
		return mem.NewController("drop-test", q, mem.ChannelConfig{
			Device: mem.Preset(mem.DDR3), CapacityBytes: 1 << 20, MaxQueue: 1,
		})
	}, 1, cycle)
	if err != nil {
		t.Fatal(err)
	}
	cs.reg = reg
	return cs
}

// TestMigrationCopyDropCounted: a migration copy (core < 0) rejected by a
// full controller is abandoned and counted in the lazily-registered obs
// counter, on the direct submission path and the queued-retry path.
func TestMigrationCopyDropCounted(t *testing.T) {
	reg := obs.NewRegistry()
	cs := dropTestShard(t, reg)

	// Fill the single queue slot with demand traffic.
	if !cs.ctrl.EnqueueLine(0, false, 0, 0, nil, 0) {
		t.Fatal("first enqueue rejected by an empty controller")
	}
	// Direct path: a copy arriving at a full controller is dropped.
	cs.try(0, linkMsg{local: 64, core: -1})
	if got := reg.Snapshot().Counters["mem.migration_copy_drops"]; got != 1 {
		t.Fatalf("drop counter = %d after direct-path drop, want 1", got)
	}
	// Queued path: copies stuck behind earlier rejections are dropped when
	// the retry drain still faces a full controller.
	cs.pending = append(cs.pending, linkMsg{local: 128, core: -1}, linkMsg{local: 192, core: -1})
	cs.drainPending(0)
	if got := reg.Snapshot().Counters["mem.migration_copy_drops"]; got != 3 {
		t.Fatalf("drop counter = %d after queued-path drops, want 3", got)
	}
	if len(cs.pending) != 0 || cs.pendHead != 0 {
		t.Fatalf("pending queue not drained: len=%d head=%d", len(cs.pending), cs.pendHead)
	}
}

// TestMigrationCopyDropCounterLazy: runs that never drop a copy must not
// grow a zero-valued counter — snapshots (and therefore goldens) stay
// unchanged for every non-dropping workload.
func TestMigrationCopyDropCounterLazy(t *testing.T) {
	reg := obs.NewRegistry()
	cs := dropTestShard(t, reg)

	cs.try(0, linkMsg{local: 0, core: -1}) // empty controller: accepted
	if _, ok := reg.Snapshot().Counters["mem.migration_copy_drops"]; ok {
		t.Fatal("drop counter registered without any drop")
	}
}
