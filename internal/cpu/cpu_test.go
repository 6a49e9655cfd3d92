package cpu

import (
	"testing"
	"unsafe"

	"moca/internal/cache"
	"moca/internal/event"
)

// sliceStream replays a fixed instruction slice.
type sliceStream struct {
	ins []Instr
	i   int
}

func (s *sliceStream) Next() (Instr, bool) {
	if s.i >= len(s.ins) {
		return Instr{}, false
	}
	in := s.ins[s.i]
	s.i++
	return in, true
}

// identityXlate maps virtual addresses to themselves.
type identityXlate struct{ oomAfter int }

func (x *identityXlate) Translate(vaddr uint64, write bool) (uint64, bool) {
	if x.oomAfter > 0 {
		x.oomAfter--
		if x.oomAfter == 0 {
			return 0, false
		}
	}
	return vaddr, true
}

// fixedMem completes every access after a fixed latency, reporting MemHit.
type fixedMem struct {
	q        *event.Queue
	latency  event.Time
	level    cache.Level
	accesses int
	// outstanding tracks concurrent in-flight accesses (observed MLP).
	inflight    int
	maxInflight int
}

func (m *fixedMem) Access(paddr uint64, obj uint64, write bool, sink cache.AccessSink, token uint64) {
	m.accesses++
	if sink == nil {
		return
	}
	m.inflight++
	if m.inflight > m.maxInflight {
		m.maxInflight = m.inflight
	}
	m.q.After(m.latency, func() {
		m.inflight--
		sink.AccessDone(token, m.q.Now(), m.level)
	})
}

// AccessLoad never services a hit inline: every load completes through
// Access's delivery event.
func (m *fixedMem) AccessLoad(paddr uint64, obj uint64, sink cache.AccessSink, token uint64) (event.Time, uint64, cache.Level, bool) {
	m.Access(paddr, obj, false, sink, token)
	return 0, 0, 0, false
}

func (m *fixedMem) Promote(event.Time, uint64, cache.Level, cache.AccessSink, uint64) {
	panic("fixedMem: no inline completion to promote")
}

// runCore ticks the core against the queue until done or the cycle cap.
func runCore(t *testing.T, c *Core, q *event.Queue, maxCycles int) {
	t.Helper()
	cycle := event.Time(1000)
	now := event.Time(0)
	for i := 0; i < maxCycles && !c.Done(); i++ {
		q.RunUntil(now)
		c.Tick()
		now += cycle
	}
	if !c.Done() {
		t.Fatalf("core did not finish within %d cycles (stats %+v)", maxCycles, c.Stats())
	}
}

func newCore(t *testing.T, ins []Instr, mem MemPort) *Core {
	t.Helper()
	c, err := New(0, DefaultConfig(), &sliceStream{ins: ins}, &identityXlate{}, mem)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestComputeOnlyIPC(t *testing.T) {
	q := event.NewQueue()
	m := &fixedMem{q: q, latency: 100000, level: cache.MemHit}
	c := newCore(t, []Instr{{Kind: Compute, N: 3000}}, m)
	runCore(t, c, q, 10000)
	st := c.Stats()
	if st.Instructions != 3000 {
		t.Fatalf("retired %d, want 3000", st.Instructions)
	}
	// Width 3: about 1000 cycles, allowing pipeline fill slack.
	if st.IPC() < 2.5 {
		t.Errorf("compute-only IPC = %.2f, want near 3", st.IPC())
	}
}

func TestValidateConfig(t *testing.T) {
	bad := []Config{
		{Width: 0, ROBSize: 84, LQSize: 32, Cycle: 1000},
		{Width: 3, ROBSize: 0, LQSize: 32, Cycle: 1000},
		{Width: 3, ROBSize: 84, LQSize: 0, Cycle: 1000},
		{Width: 3, ROBSize: 84, LQSize: 32, Cycle: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
}

func TestNewRejectsNilDeps(t *testing.T) {
	if _, err := New(0, DefaultConfig(), nil, &identityXlate{}, &fixedMem{}); err == nil {
		t.Error("nil stream accepted")
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	q := event.NewQueue()
	m := &fixedMem{q: q, latency: 200 * event.Nanosecond, level: cache.MemHit}
	var ins []Instr
	for i := 0; i < 16; i++ {
		ins = append(ins, Instr{Kind: Load, VAddr: uint64(i) * 4096, Obj: 1})
	}
	c := newCore(t, ins, m)
	runCore(t, c, q, 100000)
	if m.maxInflight < 8 {
		t.Errorf("max in-flight independent loads = %d, want >= 8 (MLP)", m.maxInflight)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	q := event.NewQueue()
	m := &fixedMem{q: q, latency: 200 * event.Nanosecond, level: cache.MemHit}
	var ins []Instr
	for i := 0; i < 16; i++ {
		ins = append(ins, Instr{Kind: Load, VAddr: uint64(i) * 4096, Obj: 1, DependsOnPrev: i > 0})
	}
	c := newCore(t, ins, m)
	runCore(t, c, q, 1000000)
	if m.maxInflight != 1 {
		t.Errorf("max in-flight dependent loads = %d, want 1 (pointer chase)", m.maxInflight)
	}
	// Each of the 16 loads serializes the ~200 ns latency: >= 3200 cycles.
	if c.Stats().Cycles < 3200 {
		t.Errorf("chase of 16 dependent 200 ns loads took only %d cycles", c.Stats().Cycles)
	}
}

func TestROBHeadStallAttribution(t *testing.T) {
	q := event.NewQueue()
	m := &fixedMem{q: q, latency: 100 * event.Nanosecond, level: cache.MemHit}
	var got []uint64
	var stalls []uint64
	c := newCore(t, []Instr{
		{Kind: Load, VAddr: 0, Obj: 99},
		{Kind: Compute, N: 5},
	}, m)
	c.OnMemLoadRetire = func(obj uint64, s uint64) {
		got = append(got, obj)
		stalls = append(stalls, s)
	}
	runCore(t, c, q, 100000)
	if len(got) != 1 || got[0] != 99 {
		t.Fatalf("mem-load retire objects = %v, want [99]", got)
	}
	// The load waits ~100 ns = 100 cycles at the head.
	if stalls[0] < 90 || stalls[0] > 120 {
		t.Errorf("head stall = %d cycles, want ~100", stalls[0])
	}
	st := c.Stats()
	if st.MemLoads != 1 || st.MemStallCycles != stalls[0] {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheHitLoadsDoNotCountAsMemLoads(t *testing.T) {
	q := event.NewQueue()
	m := &fixedMem{q: q, latency: 2 * event.Nanosecond, level: cache.L1Hit}
	fired := false
	c := newCore(t, []Instr{{Kind: Load, VAddr: 0, Obj: 1}}, m)
	c.OnMemLoadRetire = func(uint64, uint64) { fired = true }
	runCore(t, c, q, 1000)
	if fired {
		t.Error("OnMemLoadRetire fired for a cache hit")
	}
	if st := c.Stats(); st.MemLoads != 0 || st.Loads != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHighMLPHasLowerStallPerMiss(t *testing.T) {
	// The classification premise: N independent misses share the latency,
	// N dependent misses each eat it whole.
	perMiss := func(dependent bool) float64 {
		q := event.NewQueue()
		m := &fixedMem{q: q, latency: 150 * event.Nanosecond, level: cache.MemHit}
		var ins []Instr
		for i := 0; i < 64; i++ {
			ins = append(ins, Instr{Kind: Load, VAddr: uint64(i) * 4096, Obj: 1, DependsOnPrev: dependent && i > 0})
			ins = append(ins, Instr{Kind: Compute, N: 2})
		}
		c := newCore(t, ins, m)
		runCore(t, c, q, 10000000)
		st := c.Stats()
		return float64(st.MemStallCycles) / float64(st.MemLoads)
	}
	dep, indep := perMiss(true), perMiss(false)
	if indep*2 > dep {
		t.Errorf("stall/miss: independent %.1f should be well below dependent %.1f", indep, dep)
	}
}

func TestStoresArePosted(t *testing.T) {
	q := event.NewQueue()
	m := &fixedMem{q: q, latency: 500 * event.Nanosecond, level: cache.MemHit}
	var ins []Instr
	for i := 0; i < 30; i++ {
		ins = append(ins, Instr{Kind: Store, VAddr: uint64(i) * 4096, Obj: 1})
	}
	c := newCore(t, ins, m)
	runCore(t, c, q, 2000)
	st := c.Stats()
	if st.Stores != 30 {
		t.Fatalf("stores = %d, want 30", st.Stores)
	}
	if st.ROBHeadStallCycles != 0 {
		t.Errorf("stores caused %d head stalls, want 0 (posted)", st.ROBHeadStallCycles)
	}
	if m.accesses != 30 {
		t.Errorf("memory saw %d accesses, want 30", m.accesses)
	}
}

func TestLQLimitBoundsOutstandingLoads(t *testing.T) {
	q := event.NewQueue()
	m := &fixedMem{q: q, latency: 1000 * event.Nanosecond, level: cache.MemHit}
	var ins []Instr
	for i := 0; i < 100; i++ {
		ins = append(ins, Instr{Kind: Load, VAddr: uint64(i) * 4096, Obj: 1})
	}
	c := newCore(t, ins, m)
	runCore(t, c, q, 10000000)
	cfg := DefaultConfig()
	if m.maxInflight > cfg.LQSize {
		t.Errorf("in-flight loads %d exceed LQ size %d", m.maxInflight, cfg.LQSize)
	}
	if c.Stats().LQFullCycles == 0 {
		t.Error("LQ never filled with 100 outstanding 1 us loads")
	}
}

func TestROBBoundsInFlightInstructions(t *testing.T) {
	q := event.NewQueue()
	m := &fixedMem{q: q, latency: 1000 * event.Nanosecond, level: cache.MemHit}
	ins := []Instr{{Kind: Load, VAddr: 0, Obj: 1}, {Kind: Compute, N: 1000}}
	c := newCore(t, ins, m)
	// After the load blocks the head, at most ROBSize-1 compute
	// instructions can dispatch; none can retire.
	cycle := event.Time(1000)
	now := event.Time(0)
	for i := 0; i < 200; i++ {
		q.RunUntil(now)
		c.Tick()
		now += cycle
	}
	if got := c.Stats().Instructions; got != 0 {
		t.Errorf("retired %d instructions behind a blocked head", got)
	}
	if c.Stats().ROBFullCycles == 0 {
		t.Error("ROB never filled behind a blocked load")
	}
	// Finish the run to confirm forward progress.
	runCore(t, c, q, 10000000)
	if got := c.Stats().Instructions; got != 1001 {
		t.Errorf("retired %d, want 1001", got)
	}
}

func TestOnRetireCountsEverything(t *testing.T) {
	q := event.NewQueue()
	m := &fixedMem{q: q, latency: 10 * event.Nanosecond, level: cache.L2Hit}
	ins := []Instr{
		{Kind: Compute, N: 10},
		{Kind: Load, VAddr: 64, Obj: 1},
		{Kind: Store, VAddr: 128, Obj: 1},
		{Kind: Compute, N: 5},
	}
	c := newCore(t, ins, m)
	var total uint64
	c.OnRetire = func(n uint64) { total += n }
	runCore(t, c, q, 10000)
	if total != 17 {
		t.Errorf("OnRetire total = %d, want 17", total)
	}
	if c.Stats().Instructions != 17 {
		t.Errorf("Instructions = %d, want 17", c.Stats().Instructions)
	}
}

func TestTranslateFaultHaltsCore(t *testing.T) {
	q := event.NewQueue()
	m := &fixedMem{q: q, latency: 10, level: cache.L1Hit}
	s := &sliceStream{ins: []Instr{
		{Kind: Load, VAddr: 0, Obj: 1},
		{Kind: Load, VAddr: 4096, Obj: 1},
	}}
	c, err := New(0, DefaultConfig(), s, &identityXlate{oomAfter: 2}, m)
	if err != nil {
		t.Fatal(err)
	}
	now := event.Time(0)
	for i := 0; i < 1000 && !c.Done(); i++ {
		q.RunUntil(now)
		c.Tick()
		now += 1000
	}
	if !c.Done() {
		t.Fatal("core did not halt")
	}
	if c.Err() == nil {
		t.Error("expected a fault error")
	}
}

func TestDeterministicRuns(t *testing.T) {
	mk := func() Stats {
		q := event.NewQueue()
		m := &fixedMem{q: q, latency: 77 * event.Nanosecond, level: cache.MemHit}
		var ins []Instr
		for i := 0; i < 200; i++ {
			ins = append(ins, Instr{Kind: Load, VAddr: uint64(i*64) % 8192, Obj: 1, DependsOnPrev: i%3 == 0})
			ins = append(ins, Instr{Kind: Compute, N: int32(i%7 + 1)})
		}
		c, _ := New(0, DefaultConfig(), &sliceStream{ins: ins}, &identityXlate{}, m)
		now := event.Time(0)
		for !c.Done() {
			q.RunUntil(now)
			c.Tick()
			now += 1000
		}
		return c.Stats()
	}
	if a, b := mk(), mk(); a != b {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestROBEntryFillsOneLine pins the ROB slot to one 64-byte cache line: the
// field order packs it, and a new or reordered field that spills it onto a
// second line should be a deliberate choice.
func TestROBEntryFillsOneLine(t *testing.T) {
	if got := unsafe.Sizeof(robEntry{}); got != 64 {
		t.Errorf("robEntry is %d bytes, want 64", got)
	}
}
