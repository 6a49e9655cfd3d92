package cache

// Microbenchmark for the open-addressed MSHR index, plus its CI alloc
// smoke gate (mirrors the internal/vm gates: >20% allocs/op past the
// checked-in budget in BENCH_throughput.json fails).

import (
	"encoding/json"
	"os"
	"testing"

	"moca/internal/event"
)

// BenchmarkMSHRIndex churns the index with the hierarchy's miss-path
// pattern: fill to the MSHR budget, look every line up (merge check),
// then drain — entries are pre-allocated so the index's own cost shows.
func BenchmarkMSHRIndex(b *testing.B) {
	const budget = 20
	ix := newMSHRIndex(budget)
	entries := make([]*mshrEntry, budget)
	for i := range entries {
		entries[i] = &mshrEntry{}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(i*budget+1) * LineBytes
		for j := uint64(0); j < budget; j++ {
			entries[j].lineAddr = base + j*LineBytes
			ix.insert(entries[j].lineAddr, entries[j])
		}
		for j := uint64(0); j < budget; j++ {
			if ix.lookup(base+j*LineBytes) == nil {
				b.Fatal("outstanding miss not indexed")
			}
		}
		for j := uint64(0); j < budget; j++ {
			ix.remove(base + j*LineBytes)
		}
	}
}

func TestMSHRIndexAllocBudget(t *testing.T) {
	if os.Getenv("MOCA_BENCH_SMOKE") == "" {
		t.Skip("set MOCA_BENCH_SMOKE=1 to run the bench smoke")
	}
	data, err := os.ReadFile("../../BENCH_throughput.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Micro map[string]struct {
			AllocsPerOp int64 `json:"allocs_per_op"`
		} `json:"micro"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	m, ok := f.Micro["BenchmarkMSHRIndex"]
	if !ok {
		t.Fatal("BENCH_throughput.json has no micro entry BenchmarkMSHRIndex")
	}
	budget := m.AllocsPerOp + m.AllocsPerOp/5
	res := testing.Benchmark(BenchmarkMSHRIndex)
	allocs := res.AllocsPerOp()
	t.Logf("BenchmarkMSHRIndex: %d allocs/op, budget %d", allocs, budget)
	if allocs > budget {
		t.Fatalf("BenchmarkMSHRIndex allocation regression: %d allocs/op exceeds budget %d; if intentional, update the micro entry in BENCH_throughput.json",
			allocs, budget)
	}
}

// BenchmarkHitProbe measures the inline-hit probe path every load hit
// rides: AccessLoad on a warm L1 line services the hit arithmetically and
// reserves its event-order slot, then RunUntil advances past the
// completion. The whole round-trip must stay at 0 allocs/op — an
// allocation here would be one per memory access on the common path.
func BenchmarkHitProbe(b *testing.B) {
	q := event.NewQueue()
	be := &fakeBackend{q: q, latency: 100 * event.Nanosecond}
	cfg := HierarchyConfig{
		L1:       Config{SizeBytes: 1024, Ways: 2, LatencyCycles: 2, MSHRs: 4},
		L2:       Config{SizeBytes: 8192, Ways: 4, LatencyCycles: 20, MSHRs: 4},
		CPUCycle: event.Nanosecond,
	}
	h, err := NewHierarchy(q, be, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var lines [8]uint64
	for i := range lines {
		lines[i] = uint64(i+1) * LineBytes
		h.fillL1(lines[i], false)
	}
	var sink funcSink = func(event.Time, Level) {}
	// One warm round reaches steady state before timing.
	if at, _, _, inline := h.AccessLoad(lines[0], 0, sink, 0); inline {
		q.RunUntil(at)
	} else {
		b.Fatal("warm line did not probe as a hit")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, _, _, inline := h.AccessLoad(lines[i&7], 0, sink, 0)
		if !inline {
			b.Fatal("probe missed on a warm line")
		}
		q.RunUntil(at)
	}
}

func TestHitProbeAllocBudget(t *testing.T) {
	if os.Getenv("MOCA_BENCH_SMOKE") == "" {
		t.Skip("set MOCA_BENCH_SMOKE=1 to run the bench smoke")
	}
	data, err := os.ReadFile("../../BENCH_throughput.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Micro map[string]struct {
			AllocsPerOp int64 `json:"allocs_per_op"`
		} `json:"micro"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	m, ok := f.Micro["BenchmarkHitProbe"]
	if !ok {
		t.Fatal("BENCH_throughput.json has no micro entry BenchmarkHitProbe")
	}
	if m.AllocsPerOp != 0 {
		t.Fatalf("BenchmarkHitProbe budget must be 0 allocs/op (the inline-hit contract), ledger says %d", m.AllocsPerOp)
	}
	res := testing.Benchmark(BenchmarkHitProbe)
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("inline-hit probe allocates: %d allocs/op; the hit path must be allocation-free",
			allocs)
	}
}
