// Trace-replay: freezing a workload into a trace and replaying it.
//
// Traces decouple workload generation from simulation: a recorded run can
// be archived, diffed, or produced by an external tool, and replay is
// guaranteed bit-identical to the original. This example records a slice
// of mcf, inspects it, and replays it on two memory systems.
//
//	go run ./examples/trace-replay
package main

import (
	"bytes"
	"fmt"
	"log"

	"moca"
)

func main() {
	app := moca.AppByNameMust("mcf")

	// 1. Record: freeze 400k stream items of mcf's reference input.
	var buf bytes.Buffer
	n, err := moca.RecordTraceV2(&buf, app, moca.Ref, nil, 400_000, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d stream items: %.2f MB (%.2f bytes/item)\n\n",
		n, float64(buf.Len())/(1<<20), float64(buf.Len())/float64(n))

	// 2. Replay the identical instruction stream on two systems.
	for _, kind := range []moca.MemoryKind{moca.DDR3, moca.RLDRAM} {
		tr, err := moca.OpenTraceStream(bytes.NewReader(buf.Bytes()))
		if err != nil {
			log.Fatal(err)
		}
		cfg := moca.DefaultSystem("replay", moca.Homogeneous(kind), moca.PolicyFixed)
		sys, err := moca.NewSystem(cfg, []moca.ProcSpec{{
			App: app, Input: moca.Ref, Stream: tr,
		}})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Run(sys.SuggestedWarmup(), 200_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8v IPC %.2f, memory %.1f ns/request, %d LLC misses\n",
			kind, res.Cores[0].IPC(),
			float64(res.AvgMemAccessTime())/1000, res.Cores[0].Hier.DemandMisses)
		if tr.Err() != nil {
			log.Fatal(tr.Err())
		}
	}

	// 3. Determinism: replaying twice gives identical results.
	runOnce := func() int64 {
		tr, _ := moca.OpenTraceStream(bytes.NewReader(buf.Bytes()))
		cfg := moca.DefaultSystem("replay", moca.Homogeneous(moca.DDR3), moca.PolicyFixed)
		sys, _ := moca.NewSystem(cfg, []moca.ProcSpec{{App: app, Input: moca.Ref, Stream: tr}})
		res, err := sys.Run(sys.SuggestedWarmup(), 200_000)
		if err != nil {
			log.Fatal(err)
		}
		return int64(res.Elapsed)
	}
	a, b := runOnce(), runOnce()
	fmt.Printf("\nreplay determinism: run1 = %d ps, run2 = %d ps, identical = %v\n", a, b, a == b)
}
