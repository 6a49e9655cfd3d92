package trace

import (
	"bytes"
	"os"
	"testing"

	"moca/internal/cpu"
	"moca/internal/heap"
	"moca/internal/workload"
)

// benchCorpus is 256Ki items of the real mcf generator stream — the
// corpus the simulator actually replays — plus its v1 and v2 encodings,
// shared by the decode/encode benchmarks. v1 is encodeV1's output: only
// the reader of that format remains.
const benchCorpusItems = 256 * 1024

func benchCorpus(b *testing.B) (items []cpu.Instr, v1, v2 []byte) {
	b.Helper()
	spec, ok := workload.ByName("mcf")
	if !ok {
		b.Fatal("unknown application mcf")
	}
	app, err := workload.Instantiate(spec.ForInput(workload.Ref), heap.New(heap.Config{}), 0)
	if err != nil {
		b.Fatal(err)
	}
	stream := app.Stream()
	items = make([]cpu.Instr, benchCorpusItems)
	for i := range items {
		in, ok := stream.Next()
		if !ok {
			b.Fatalf("mcf stream ended at item %d", i)
		}
		items[i] = in
	}
	var b2 bytes.Buffer
	w2, err := NewBlockWriter(&b2)
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range items {
		if err := w2.Append(in); err != nil {
			b.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		b.Fatal(err)
	}
	return items, encodeV1(items), b2.Bytes()
}

// reportDecode normalizes the two throughput views: MB/s of encoded trace
// (SetBytes) and decoded stream items per second.
func reportDecode(b *testing.B, encoded int) {
	b.SetBytes(int64(encoded))
	b.ReportMetric(float64(benchCorpusItems)*float64(b.N)/b.Elapsed().Seconds(), "items/s")
}

// BenchmarkTraceDecode compares the per-instruction v1 path against the
// v2 block path, item-at-a-time and batch-refill. One op decodes the full
// 256Ki-item corpus; steady state reuses the reader (Reset), so the v2
// rows are the zero-alloc arena path the simulator replays through.
func BenchmarkTraceDecode(b *testing.B) {
	_, v1, v2 := benchCorpus(b)

	b.Run("v1/next", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := Open(bytes.NewReader(v1))
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for {
				if _, ok := r.Next(); !ok {
					break
				}
				n++
			}
			if err := r.Err(); err != nil || n != benchCorpusItems {
				b.Fatalf("%d items, err %v", n, err)
			}
		}
		reportDecode(b, len(v1))
	})

	b.Run("v2/next", func(b *testing.B) {
		br := bytes.NewReader(v2)
		r, err := NewBlockReader(br)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			for {
				if _, ok := r.Next(); !ok {
					break
				}
				n++
			}
			if err := r.Err(); err != nil || n != benchCorpusItems {
				b.Fatalf("%d items, err %v", n, err)
			}
			br.Reset(v2)
			if err := r.Reset(br); err != nil {
				b.Fatal(err)
			}
		}
		reportDecode(b, len(v2))
	})

	b.Run("v2/batch", func(b *testing.B) {
		br := bytes.NewReader(v2)
		r, err := NewBlockReader(br)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			for {
				batch := r.NextBatch()
				if len(batch) == 0 {
					break
				}
				n += len(batch)
			}
			if err := r.Err(); err != nil || n != benchCorpusItems {
				b.Fatalf("%d items, err %v", n, err)
			}
			br.Reset(v2)
			if err := r.Reset(br); err != nil {
				b.Fatal(err)
			}
		}
		reportDecode(b, len(v2))
	})

	b.Run("v2/refill", func(b *testing.B) {
		br := bytes.NewReader(v2)
		r, err := NewBlockReader(br)
		if err != nil {
			b.Fatal(err)
		}
		var dst [64]cpu.Instr // the core's batch buffer size
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			for {
				k := r.Refill(dst[:])
				if k == 0 {
					break
				}
				n += k
			}
			if err := r.Err(); err != nil || n != benchCorpusItems {
				b.Fatalf("%d items, err %v", n, err)
			}
			br.Reset(v2)
			if err := r.Reset(br); err != nil {
				b.Fatal(err)
			}
		}
		reportDecode(b, len(v2))
	})
}

// BenchmarkTraceEncode measures the v2 writer and reports the encoded
// size per item alongside throughput.
func BenchmarkTraceEncode(b *testing.B) {
	items, _, v2 := benchCorpus(b)

	b.Run("v2", func(b *testing.B) {
		var buf bytes.Buffer
		buf.Grow(len(v2) + 1024)
		w, err := NewBlockWriter(&buf)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := w.Reset(&buf); err != nil {
				b.Fatal(err)
			}
			for _, in := range items {
				if err := w.Append(in); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		}
		reportDecode(b, buf.Len())
		b.ReportMetric(float64(len(v2))/float64(len(items)), "B/item")
	})
}

// TestTraceDecodeAllocBudget is the CI bench smoke for the v2 hot path:
// steady-state block decoding must stay allocation-free — both the
// item-at-a-time and the batch-refill view. The first corpus pass may
// grow the arena and scratch buffers; every later pass reuses them.
// Skipped unless MOCA_BENCH_SMOKE=1.
func TestTraceDecodeAllocBudget(t *testing.T) {
	if os.Getenv("MOCA_BENCH_SMOKE") == "" {
		t.Skip("set MOCA_BENCH_SMOKE=1 to run the bench smoke")
	}
	items := genItems(64*1024, 7)
	encoded := writeV2(t, items, 0)

	br := bytes.NewReader(encoded)
	r, err := NewBlockReader(br)
	if err != nil {
		t.Fatal(err)
	}
	var dst [64]cpu.Instr
	pass := func(mode string) {
		n := 0
		switch mode {
		case "next":
			for {
				if _, ok := r.Next(); !ok {
					break
				}
				n++
			}
		case "refill":
			for {
				k := r.Refill(dst[:])
				if k == 0 {
					break
				}
				n += k
			}
		case "batch":
			for {
				batch := r.NextBatch()
				if len(batch) == 0 {
					break
				}
				n += len(batch)
			}
		}
		if err := r.Err(); err != nil || n != len(items) {
			t.Fatalf("%d items, err %v", n, err)
		}
		br.Reset(encoded)
		if err := r.Reset(br); err != nil {
			t.Fatal(err)
		}
	}
	pass("next") // warm the arena and scratch buffers

	for _, mode := range []string{"next", "refill", "batch"} {
		mode := mode
		allocs := testing.AllocsPerRun(3, func() { pass(mode) })
		t.Logf("%s: %.1f allocs per corpus pass", mode, allocs)
		if allocs > 0 {
			t.Errorf("%s: %v allocs per steady-state corpus pass, want 0", mode, allocs)
		}
	}
}
