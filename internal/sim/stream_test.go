package sim

import (
	"encoding/json"
	"testing"

	"moca/internal/cpu"
	"moca/internal/mem"
	"moca/internal/workload"
)

// sliceStream replays a fixed instruction slice, then reports exhaustion.
type sliceStream struct {
	ins []cpu.Instr
	i   int
}

func (s *sliceStream) Next() (cpu.Instr, bool) {
	if s.i >= len(s.ins) {
		return cpu.Instr{}, false
	}
	s.i++
	return s.ins[s.i-1], true
}

// TestDegenerateStreams: a stream that ends before the measured quota
// fails the run with the exact shortfall, whether it is empty or holds a
// single instruction.
func TestDegenerateStreams(t *testing.T) {
	for _, tc := range []struct {
		name string
		ins  []cpu.Instr
		want string
	}{
		{
			name: "empty-trace",
			want: "sim: homogen-ddr3 core 0 (gcc): instruction stream ended 1000 instructions short of its 1000 quota",
		},
		{
			name: "one-instruction-trace",
			ins:  []cpu.Instr{{Kind: cpu.Compute, N: 1}},
			want: "sim: homogen-ddr3 core 0 (gcc): instruction stream ended 999 instructions short of its 1000 quota",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed)
			cfg.Obs.Metrics = true
			sys, err := New(cfg, []ProcSpec{{App: workload.GCC(), Input: workload.Ref, Stream: &sliceStream{ins: tc.ins}}})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(0, 1000)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Run = (%v, %v), want error %q", res != nil, err, tc.want)
			}
		})
	}
}

// FuzzInstrStream drives the simulator with adversarial instruction
// streams: compute runs of fuzz-chosen lengths (the compute-batch path)
// interleaved with loads steered to hit the caches (inline hits, with and
// without a waiting dependent), fresh-line misses and far-stride stores
// (row conflicts and fresh pages whose latencies span window barriers).
// Every stream must complete, retire exactly its measured quota, and
// marshal byte-identically when run twice.
func FuzzInstrStream(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0xc3, 0x04, 0x45, 0x86, 0xc7})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x42, 0x13, 0x37})
	f.Add([]byte{0x01})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 512 {
			raw = raw[:512]
		}

		// The upper bits of each byte pick run lengths and strides; the
		// low two bits pick the instruction shape. last tracks the
		// previous load so "hit" steps re-touch a line that is warm by
		// construction, while the far stride hops DRAM rows.
		var ins []cpu.Instr
		var total uint64
		last := uint64(1 << 20)
		next := last
		for _, b := range raw {
			arg := uint64(b >> 2)
			switch b & 3 {
			case 0: // compute run
				n := int(arg) + 1
				ins = append(ins, cpu.Instr{Kind: cpu.Compute, N: int32(n)})
				total += uint64(n)
			case 1: // re-touch the previous line: cache hit
				ins = append(ins, cpu.Instr{Kind: cpu.Load, VAddr: last, Obj: 1})
				total++
			case 2: // short stride: new line, same or nearby row
				next += (arg + 1) * 64
				last = next
				dep := b&0x40 != 0
				ins = append(ins, cpu.Instr{Kind: cpu.Load, VAddr: last, Obj: 2, DependsOnPrev: dep})
				total++
			case 3: // far stride: row conflict / fresh page
				next += (arg + 1) << 16
				last = next
				ins = append(ins, cpu.Instr{Kind: cpu.Store, VAddr: last, Obj: 3})
				total++
			}
		}
		// Pad with compute so the stream always covers the measured quota
		// (TestDegenerateStreams covers the short-stream error).
		ins = append(ins, cpu.Instr{Kind: cpu.Compute, N: 64})
		total += 64

		run := func() []byte {
			cfg := DefaultConfig("fuzz-stream", Homogeneous(mem.DDR3), PolicyFixed)
			cfg.CacheL2.SizeBytes /= 4 // shrink L2 so far strides actually miss
			cfg.Obs.Metrics = true
			sys, err := New(cfg, []ProcSpec{{App: workload.MCF(), Input: workload.Ref, Stream: &sliceStream{ins: ins}}})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(0, total)
			if err != nil {
				t.Fatalf("stream of %d instructions: %v", total, err)
			}
			if got := res.Cores[0].CPU.Instructions; got != total {
				t.Fatalf("retired %d instructions, want the %d-instruction quota", got, total)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		if a, b := run(), run(); string(a) != string(b) {
			t.Fatalf("two runs of the same %d-instruction stream diverged:\n%s\n%s", total, a, b)
		}
	})
}
