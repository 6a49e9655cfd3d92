// Command moca-trace records, inspects, converts, and replays
// instruction traces.
//
// Usage:
//
//	moca-trace record -app NAME [-items N] [-input ref|train] [-block-items N] [-block-bytes N] -o FILE
//	moca-trace info FILE
//	moca-trace inspect FILE
//	moca-trace convert [-block-items N] [-block-bytes N] -o OUT IN
//	moca-trace seek -seq N [-n K] FILE
//	moca-trace replay -app NAME [-system NAME] [-measure N] [-skip N] [-json] FILE
//	moca-trace replay -app NAME -remote ADDR -session TOKEN [-system NAME] [-measure N] FILE
//
// A trace freezes the exact instruction stream a workload generator
// produced; replay reproduces the original simulation bit for bit and
// decouples workload generation from simulation (external tools can
// produce traces in the documented format — see internal/trace).
// The replayed trace's virtual addresses embed the heap layout of the
// recording, so replay needs the same -app (and input) it was recorded
// with.
//
// record writes the v2 block format: framed, checksummed, seekable.
// Older v1 files (one delta/varint stream) still replay; convert turns
// them into v2, or re-frames a v2 file with other block thresholds.
// inspect, seek, and -remote need a v2 file; every other verb accepts
// either version.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"

	"moca"
	"moca/internal/cpu"
	"moca/internal/exp"
	"moca/internal/trace"
	"moca/internal/wire"
	"moca/internal/wire/client"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "inspect":
		inspect(os.Args[2:])
	case "convert":
		convert(os.Args[2:])
	case "seek":
		seek(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  moca-trace record -app NAME [-items N] [-input ref|train] [-block-items N] [-block-bytes N] -o FILE
  moca-trace info FILE
  moca-trace inspect FILE
  moca-trace convert [-block-items N] [-block-bytes N] -o OUT IN
  moca-trace seek -seq N [-n K] FILE
  moca-trace replay -app NAME [-system NAME] [-measure N] [-skip N] [-json] [-loop] FILE
  moca-trace replay -app NAME -remote ADDR -session TOKEN [-system NAME] [-measure N] FILE`)
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	appName := fs.String("app", "", "application to record")
	items := fs.Uint64("items", 500_000, "stream items to record (compute batches count once)")
	input := fs.String("input", "ref", "input set (ref|train)")
	blockItems := fs.Int("block-items", 0, "items per block (0 = default)")
	blockBytes := fs.Int("block-bytes", 0, "raw bytes per block (0 = default)")
	out := fs.String("o", "", "output trace file")
	fs.Parse(args)
	if *appName == "" || *out == "" {
		usage()
	}
	app, ok := moca.AppByName(*appName)
	if !ok {
		fatal("unknown application %q", *appName)
	}
	in := moca.Ref
	if *input == "train" {
		in = moca.Train
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	n, err := moca.RecordTraceV2(f, app, in, nil, *items, *blockItems, *blockBytes)
	if err != nil {
		fatal("recording: %v", err)
	}
	st, _ := f.Stat()
	fmt.Printf("recorded %d stream items of %s (%s input) to %s (%.1f MB, %.2f B/item)\n",
		n, *appName, in, *out, float64(st.Size())/(1<<20), float64(st.Size())/float64(n))
}

func info(args []string) {
	if len(args) != 1 {
		usage()
	}
	f, err := os.Open(args[0])
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	r, err := trace.Open(f)
	if err != nil {
		fatal("%v", err)
	}
	var items, computes, loads, depLoads, stores uint64
	var instructions uint64
	objs := map[uint64]uint64{}
	for {
		in, ok := r.Next()
		if !ok {
			break
		}
		items++
		switch in.Kind {
		case cpu.Compute:
			computes++
			instructions += uint64(in.N)
		case cpu.Load:
			loads++
			instructions++
			objs[in.Obj]++
			if in.DependsOnPrev {
				depLoads++
			}
		case cpu.Store:
			stores++
			instructions++
			objs[in.Obj]++
		}
	}
	if err := r.Err(); err != nil {
		fatal("decode: %v", err)
	}
	fmt.Printf("items:         %d (%d instructions)\n", items, instructions)
	fmt.Printf("compute:       %d batches\n", computes)
	fmt.Printf("loads:         %d (%d dependent)\n", loads, depLoads)
	fmt.Printf("stores:        %d\n", stores)
	fmt.Printf("objects:       %d distinct\n", len(objs))
}

// inspect prints the v2 block table: one line per frame, without
// decoding any payload.
func inspect(args []string) {
	if len(args) != 1 {
		usage()
	}
	f, err := os.Open(args[0])
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	sc, err := trace.NewBlockScanner(f)
	if err != nil {
		fatal("%v (inspect needs a v2 trace; see convert)", err)
	}
	fmt.Printf("%10s %12s %8s %10s\n", "offset", "seq", "items", "bytes")
	var blocks, payload uint64
	for sc.Scan() {
		bi := sc.Info()
		fmt.Printf("%10d %12d %8d %10d\n", bi.Pos.ByteOff, bi.Pos.Seq, bi.Count, bi.RawLen)
		blocks++
		payload += bi.RawLen
	}
	if err := sc.Err(); err != nil {
		fatal("scan: %v", err)
	}
	total, ended := sc.Total()
	end := "missing end frame"
	if ended {
		end = fmt.Sprintf("%d items", total)
	}
	fmt.Printf("%d blocks, %s; %d payload bytes\n", blocks, end, payload)
}

// convert writes a v2 trace: a v1 trace converted, or a v2 trace
// re-framed with different block thresholds.
func convert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	blockItems := fs.Int("block-items", 0, "items per block (0 = default)")
	blockBytes := fs.Int("block-bytes", 0, "raw bytes per block (0 = default)")
	out := fs.String("o", "", "output trace file")
	fs.Parse(args)
	if *out == "" || fs.NArg() != 1 {
		usage()
	}
	in, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal("%v", err)
	}
	defer in.Close()
	src, err := trace.Open(in)
	if err != nil {
		fatal("%v", err)
	}
	dst, err := os.Create(*out)
	if err != nil {
		fatal("%v", err)
	}
	defer dst.Close()
	w, err := trace.NewBlockWriterSize(dst, *blockItems, *blockBytes)
	if err != nil {
		fatal("%v", err)
	}
	n, err := trace.Copy(w, src)
	if err != nil {
		fatal("convert: %v", err)
	}
	if err := w.Close(); err != nil {
		fatal("%v", err)
	}
	ist, _ := in.Stat()
	ost, _ := dst.Stat()
	fmt.Printf("converted %d items: %d -> %d bytes\n", n, ist.Size(), ost.Size())
}

// seek positions a v2 reader at an arbitrary stream item and prints the
// next K items — the positioning path replay's -skip and the wire resume
// protocol both rely on.
func seek(args []string) {
	fs := flag.NewFlagSet("seek", flag.ExitOnError)
	seq := fs.Uint64("seq", 0, "stream item to seek to")
	n := fs.Int("n", 10, "items to print from there")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	r, err := trace.Open(f)
	if err != nil {
		fatal("%v", err)
	}
	br, ok := r.(*trace.BlockReader)
	if !ok {
		fatal("seek needs a v2 trace (see convert)")
	}
	if err := br.SkipTo(*seq); err != nil {
		fatal("seek: %v", err)
	}
	fmt.Printf("block at offset %d starts at item %d\n", br.BlockPos().ByteOff, br.BlockPos().Seq)
	for i := 0; i < *n; i++ {
		in, ok := br.Next()
		if !ok {
			break
		}
		switch in.Kind {
		case cpu.Compute:
			fmt.Printf("%12d  compute x%d\n", *seq+uint64(i), in.N)
		case cpu.Load:
			dep := ""
			if in.DependsOnPrev {
				dep = " dep"
			}
			fmt.Printf("%12d  load  obj=%d addr=0x%x%s\n", *seq+uint64(i), in.Obj, in.VAddr, dep)
		case cpu.Store:
			fmt.Printf("%12d  store obj=%d addr=0x%x\n", *seq+uint64(i), in.Obj, in.VAddr)
		}
	}
	if err := br.Err(); err != nil {
		fatal("decode: %v", err)
	}
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	appName := fs.String("app", "", "application the trace was recorded from")
	system := fs.String("system", "ddr3", "memory system, named as for moca-sim (ddr3|rl|hbm|lp|migrate, optionally @config2/@config3); moca and heter-app need profiled classes a trace does not carry")
	measure := fs.Uint64("measure", 200_000, "measured instructions")
	skip := fs.Uint64("skip", 0, "stream items to skip before replaying")
	asJSON := fs.Bool("json", false, "print the full result document as JSON")
	loop := fs.Bool("loop", false, "restart the trace when it ends (finite trace, long run)")
	remote := fs.String("remote", "", "push the trace to a moca-served instance at ADDR instead of simulating locally")
	session := fs.String("session", "", "remote session token (resume key across reconnects)")
	fs.Parse(args)
	if *appName == "" || fs.NArg() != 1 {
		usage()
	}
	if *remote != "" {
		replayRemote(*remote, *session, *appName, *system, *measure, fs.Arg(0), *asJSON)
		return
	}
	app, ok := moca.AppByName(*appName)
	if !ok {
		fatal("unknown application %q", *appName)
	}
	def, err := exp.ReplaySystemByName(*system)
	if err != nil {
		fatal("%v", err)
	}

	// The stream's Err() distinguishes a trace that is simply too short
	// from one that is corrupt; the simulator also surfaces it when a
	// decode error ends the stream mid-run.
	var stream moca.TraceStream
	if *loop {
		// Read once so each pass decodes from memory (no fd per pass).
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			fatal("%v", err)
		}
		stream = trace.NewLoop(func() (cpu.Stream, error) {
			return trace.Open(bytes.NewReader(data))
		})
	} else {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		stream, err = trace.Open(f)
		if err != nil {
			fatal("%v", err)
		}
	}
	if *skip > 0 {
		if br, ok := stream.(*trace.BlockReader); ok {
			// v2 skips by block header, without decoding the prefix.
			if err := br.SkipTo(*skip); err != nil {
				fatal("skip: %v", err)
			}
		} else {
			for i := uint64(0); i < *skip; i++ {
				if _, ok := stream.Next(); !ok {
					if err := stream.Err(); err != nil {
						fatal("skip: %v", err)
					}
					fatal("skip: trace ends at item %d, before %d", i, *skip)
				}
			}
		}
	}

	// A moca-served trace session resolves -system through the same
	// table, so a local replay's result is byte-identical to the same
	// trace streamed to a server.
	cfg := moca.DefaultSystem(def.Name, def.Modules, def.Policy)
	sys, err := moca.NewSystem(cfg, []moca.ProcSpec{{App: app, Input: moca.Ref, Stream: stream}})
	if err != nil {
		fatal("%v", err)
	}
	res, err := sys.Run(sys.SuggestedWarmup(), *measure)
	if err != nil {
		fatal("replay: %v (trace long enough for warmup+measure?)", err)
	}
	if err := stream.Err(); err != nil {
		fatal("trace decode: %v", err)
	}
	if *asJSON {
		raw, err := res.MarshalJSON()
		if err != nil {
			fatal("%v", err)
		}
		os.Stdout.Write(append(raw, '\n'))
		return
	}
	fmt.Printf("replayed on %s: %d instructions, IPC %.2f, mem %.1f ns/request, mem EDP %.3e\n",
		cfg.Name, res.TotalInstructions(), res.Cores[0].IPC(),
		float64(res.AvgMemAccessTime())/1000, res.MemEDP())
}

// replayRemote pushes a v2 trace into a moca-served trace session and
// waits for the server's result. The session token is the resume key: a
// rerun after a dropped connection or a killed process picks up from the
// server's last acknowledged block, not from the beginning.
func replayRemote(addr, session, appName, system string, measure uint64, path string, asJSON bool) {
	if session == "" {
		fatal("-remote needs -session TOKEN (the resume key)")
	}
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		fatal("dial %s: %v", addr, err)
	}
	defer c.Close()
	j, pos, err := c.TraceStart(wire.TraceStart{
		Session: session, System: system, App: appName, Measure: measure,
	})
	if err != nil {
		fatal("trace start: %v", err)
	}
	if pos.Seq > 0 {
		fmt.Fprintf(os.Stderr, "resuming session %q from item %d (offset %d)\n", session, pos.Seq, pos.ByteOff)
	}
	last, err := c.PushTrace(j, f, pos, nil)
	if err != nil {
		fatal("push (resume with the same -session to continue from item %d): %v", last.Seq, err)
	}
	res, err := c.TraceEnd(context.Background(), j)
	if err != nil {
		fatal("remote run: %v", err)
	}
	if asJSON {
		os.Stdout.Write(append(append([]byte(nil), j.Raw...), '\n'))
		return
	}
	fmt.Printf("replayed %d items remotely on %s: %d instructions, IPC %.2f, mem %.1f ns/request, mem EDP %.3e\n",
		last.Seq, system, res.TotalInstructions(), res.Cores[0].IPC(),
		float64(res.AvgMemAccessTime())/1000, res.MemEDP())
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "moca-trace: "+format+"\n", args...)
	os.Exit(1)
}
