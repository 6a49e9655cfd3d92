package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"moca/internal/cpu"
	"moca/internal/exp"
	"moca/internal/heap"
	"moca/internal/sim"
	"moca/internal/trace"
	"moca/internal/wire"
	"moca/internal/wire/client"
	"moca/internal/workload"
)

// traceStartSpec is the session every connection in the resume test
// repeats: the server rejects a re-attach whose system/app diverge.
func traceStartSpec() wire.TraceStart {
	return wire.TraceStart{
		Session: "resume-e2e",
		System:  "ddr3",
		App:     "mcf",
		Measure: testMeasure,
	}
}

// TestTraceStreamResume is the trace-streaming acceptance test: a client
// pushes a v2 block trace into a server-side simulation, drops the TCP
// connection abruptly mid-corpus, reconnects under the same session
// token, is told exactly which block boundary to resume from, pushes the
// remainder, and receives result bytes identical to a local run over the
// same trace file.
func TestTraceStreamResume(t *testing.T) {
	def, err := exp.SystemByName("ddr3")
	if err != nil {
		t.Fatal(err)
	}
	appSpec, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("unknown application mcf")
	}
	newCfg := func() sim.Config {
		return sim.DefaultConfig(def.Name, def.Modules, def.Policy)
	}

	// The warmup suggestion depends only on the configuration.
	probe, err := sim.New(newCfg(), []sim.ProcSpec{{App: appSpec, Input: workload.Ref}})
	if err != nil {
		t.Fatal(err)
	}
	warm := probe.SuggestedWarmup()

	// Record the app's generator stream as a v2 block trace with small
	// blocks so the corpus spans many frames; the slack covers in-flight
	// fetches past the final quota crossing.
	const blockItems = 4096
	total := warm + testMeasure + 50_000
	path := filepath.Join(t.TempDir(), "mcf.trace")
	func() {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		scratch := heap.New(heap.Config{})
		app, err := workload.Instantiate(appSpec.ForInput(workload.Ref), scratch, 0)
		if err != nil {
			t.Fatal(err)
		}
		bw, err := trace.NewBlockWriterSize(f, blockItems, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.Record(bw, app.Stream(), total); err != nil {
			t.Fatal(err)
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	// Local reference: the same simulation fed from the same trace file.
	want := func() []byte {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		br, err := trace.NewBlockReader(f)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := sim.New(newCfg(), []sim.ProcSpec{{App: appSpec, Input: workload.Ref, Stream: br}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunContext(context.Background(), warm, testMeasure)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := res.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}()

	_, addr := startServer(t, Config{DrainTimeout: 5 * time.Second, TraceIdleTimeout: time.Minute})

	// First connection: push roughly half the blocks, then vanish without
	// TRACE_END or CANCEL — a crash, not a goodbye.
	c1, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j1, pos, err := c1.TraceStart(traceStartSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !pos.IsZero() {
		t.Fatalf("fresh session resumes from %+v, want zero", pos)
	}
	var acked trace.Position
	func() {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc, err := trace.NewBlockScanner(f)
		if err != nil {
			t.Fatal(err)
		}
		half := int(total) / blockItems / 2
		for i := 0; i < half && sc.Scan(); i++ {
			acked, err = c1.PushTraceBlock(j1, sc.NextPos().ByteOff, sc.Frame())
			if err != nil {
				t.Fatalf("push block %d: %v", i, err)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}()
	if acked.Seq == 0 {
		t.Fatal("no blocks acknowledged before the disconnect")
	}
	c1.Close()

	// Reconnect under the same token. The server may still be reaping the
	// dead connection; a brief CodeBusy window is part of the contract.
	var (
		c2     *client.Client
		j2     *client.Job
		resume trace.Position
	)
	deadline := time.Now().Add(10 * time.Second)
	for {
		c2, err = client.Dial(addr, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		j2, resume, err = c2.TraceStart(traceStartSpec())
		if err == nil {
			break
		}
		c2.Close()
		var re *client.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeBusy || time.Now().After(deadline) {
			t.Fatalf("re-attach: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer c2.Close()
	if resume != acked {
		t.Fatalf("server resumes from %+v, want last acked %+v", resume, acked)
	}

	// Push the remainder from exactly the acknowledged boundary, declare
	// the end, and collect the result.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := c2.PushTrace(j2, f, resume, nil); err != nil {
		t.Fatal(err)
	}
	res, err := c2.TraceEnd(context.Background(), j2)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("nil result from TraceEnd")
	}
	if !bytes.Equal(j2.Raw, want) {
		t.Errorf("remote result bytes diverge from the local run over the same trace:\nremote %s\nlocal  %s", j2.Raw, want)
	}
}

// TestTraceSessionBusy: a session can only be attached from one
// connection at a time; a second concurrent TraceStart is refused with
// CodeBusy rather than silently hijacking the stream.
func TestTraceSessionBusy(t *testing.T) {
	_, addr := startServer(t, Config{DrainTimeout: time.Second, TraceIdleTimeout: time.Minute})

	c1, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, _, err := c1.TraceStart(traceStartSpec()); err != nil {
		t.Fatal(err)
	}

	c2, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, _, err = c2.TraceStart(traceStartSpec())
	var re *client.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeBusy {
		t.Fatalf("second attach: %v, want %s", err, wire.CodeBusy)
	}

	// The same connection may also not mismatch the session's fixed spec.
	c3, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	spec := traceStartSpec()
	spec.App = "libquantum"
	_, _, err = c3.TraceStart(spec)
	if !errors.As(err, &re) || re.Code != wire.CodeBusy {
		// Busy wins over mismatch while attached; either refusal is fine,
		// what matters is that it is refused.
		if !errors.As(err, &re) || re.Code != wire.CodeBadReq {
			t.Fatalf("mismatched attach: %v, want a refusal", err)
		}
	}
}

// lzEraFrame hand-builds a block frame of 16 compute items the way an
// older writer framed it: method 1 with its 6-byte LZ payload, or method
// 0 with a stored length (compLen) that differs from the raw length.
func lzEraFrame(method byte, compLen uint64) []byte {
	raw := bytes.Repeat([]byte{0, 5}, 16) // opCompute, N=5
	payload := raw
	if method == 1 {
		payload = []byte{2, 0, 5, 2, 26, 0}
	}
	f := []byte{0xB2}
	f = binary.AppendUvarint(f, 0)
	f = binary.AppendUvarint(f, 16)
	f = binary.AppendUvarint(f, uint64(len(raw)))
	f = binary.AppendUvarint(f, compLen)
	f = append(f, method)
	f = binary.LittleEndian.AppendUint32(f, crc32.Checksum(raw, crc32.MakeTable(crc32.Castagnoli)))
	return append(f, payload...)
}

// TestTraceSessionRejectsLZEraBlocks: a trace session refuses a method-1
// (LZ) block and a block whose stored length differs from its raw length
// with a CodeTrace error naming the corrupt block, acknowledges nothing,
// and still accepts a valid block from the same position afterwards.
func TestTraceSessionRejectsLZEraBlocks(t *testing.T) {
	_, addr := startServer(t, Config{DrainTimeout: 5 * time.Second, TraceIdleTimeout: time.Minute})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := traceStartSpec()
	spec.Session = "lz-era"
	j, _, err := c.TraceStart(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]byte{lzEraFrame(1, 6), lzEraFrame(0, 31)} {
		_, err := c.PushTraceBlock(j, uint64(9+len(frame)), frame)
		var re *client.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeTrace || !strings.Contains(re.Msg, trace.ErrCorrupt.Error()) {
			t.Fatalf("LZ-era block: %v, want a %s error carrying %q", err, wire.CodeTrace, trace.ErrCorrupt)
		}
	}

	var buf bytes.Buffer
	w, err := trace.NewBlockWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		w.Append(cpu.Instr{Kind: cpu.Compute, N: 5})
	}
	w.Close()
	sc, err := trace.NewBlockScanner(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatal(sc.Err())
	}
	pos, err := c.PushTraceBlock(j, sc.NextPos().ByteOff, sc.Frame())
	if err != nil {
		t.Fatalf("valid block after the rejected ones: %v", err)
	}
	if pos.Seq != 16 {
		t.Fatalf("acked %+v, want seq 16", pos)
	}
}

// TestTraceStartRefusesProfiledSystems: a trace session cannot run MOCA or
// Heter-App, which place pages by the profiled classes a replayed stream
// does not carry. TRACE_START for them is refused with CodeBadReq before
// any session exists; migrate and the homogeneous systems still open one.
func TestTraceStartRefusesProfiledSystems(t *testing.T) {
	srv, addr := startServer(t, Config{DrainTimeout: time.Second, TraceIdleTimeout: time.Minute})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, system := range []string{"moca", "heter-app", "moca@config2"} {
		spec := traceStartSpec()
		spec.Session, spec.System = "refused-"+system, system
		_, _, err := c.TraceStart(spec)
		var re *client.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeBadReq || !strings.Contains(re.Msg, "profiled classes") {
			t.Errorf("TRACE_START on %s: %v, want %s naming the profiled classes", system, err, wire.CodeBadReq)
		}
	}
	srv.mu.Lock()
	n := len(srv.traces)
	srv.mu.Unlock()
	if n != 0 {
		t.Fatalf("refused TRACE_STARTs created %d sessions", n)
	}
	spec := traceStartSpec()
	spec.Session, spec.System = "accepted-migrate", "migrate"
	if _, _, err := c.TraceStart(spec); err != nil {
		t.Fatalf("TRACE_START on migrate: %v", err)
	}
}
