package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"moca/internal/wire"
	"moca/internal/wire/client"
)

// rawConn speaks frames to a server directly, for the frames and
// timings the client package hides.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

// dialRaw connects to addr and completes the HELLO handshake.
func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return handshakeRaw(t, nc)
}

func handshakeRaw(t *testing.T, nc net.Conn) *rawConn {
	t.Helper()
	r := &rawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
	r.send(wire.TypeHello, wire.Hello{Version: wire.ProtocolVersion})
	if typ, _ := r.read(); typ != wire.TypeHelloOK {
		t.Fatalf("handshake answered with frame type %#x", typ)
	}
	return r
}

func (r *rawConn) send(typ byte, v any) {
	r.t.Helper()
	r.nc.SetWriteDeadline(time.Now().Add(30 * time.Second))
	if err := wire.WriteMsg(r.nc, typ, v, 0); err != nil {
		r.t.Fatalf("send %#x: %v", typ, err)
	}
}

func (r *rawConn) read() (byte, []byte) {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(60 * time.Second))
	typ, payload, err := wire.ReadFrame(r.br, 0)
	if err != nil {
		r.t.Fatalf("read: %v", err)
	}
	return typ, payload
}

// expect reads one frame, checks its type and decodes it into msg.
func (r *rawConn) expect(typ byte, msg any) {
	r.t.Helper()
	got, payload := r.read()
	if got != typ {
		r.t.Fatalf("got frame type %#x (%s), want %#x", got, payload, typ)
	}
	if err := wire.Decode(payload, msg); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawConn) status(id uint32) string {
	r.t.Helper()
	r.send(wire.TypeStatus, wire.StatusReq{ID: id})
	var st wire.JobStatus
	r.expect(wire.TypeJobState, &st)
	if st.ID != id {
		r.t.Fatalf("STATUS answer for job %d, want %d", st.ID, id)
	}
	return st.State
}

// expectClosed waits for the server to close the connection, failing if
// it keeps the connection past within or sends any frame but the
// protocol ERROR that reports the idle timeout.
func (r *rawConn) expectClosed(within time.Duration) {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(within))
	for {
		_, err := r.br.Peek(1)
		switch {
		case err == io.EOF:
			return
		case errors.Is(err, os.ErrDeadlineExceeded):
			r.t.Fatalf("connection still open after %v", within)
		case err != nil:
			r.t.Fatalf("read: %v, want the connection closed", err)
		}
		typ, payload, err := wire.ReadFrame(r.br, 0)
		var em wire.ErrorMsg
		if err != nil || typ != wire.TypeError || wire.Decode(payload, &em) != nil || em.Code != wire.CodeProto {
			r.t.Fatalf("got frame type %#x (%s, %v), want the connection closed", typ, payload, err)
		}
	}
}

// stillOpen checks the server neither closes the connection nor sends a
// frame while the client stays silent for d.
func (r *rawConn) stillOpen(d time.Duration) {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(d))
	_, err := r.br.Peek(1)
	if err == nil {
		typ, payload, _ := wire.ReadFrame(r.br, 0)
		r.t.Fatalf("got frame type %#x (%s) while idle", typ, payload)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		r.t.Fatalf("server closed a connection with a live job: %v", err)
	}
}

// longSubmit is a run that only cancellation ends.
func longSubmit(id uint32) wire.Submit {
	sub := testSubmit(id)
	sub.Measure = 2_000_000_000
	return sub
}

// TestStatusAndCancel: STATUS reports running, done, failed and canceled
// jobs and refuses unknown IDs; a CANCEL after the RESULT leaves the job
// done, so STATUS never contradicts the terminal frame the client got.
func TestStatusAndCancel(t *testing.T) {
	_, addr := startServer(t, Config{DrainTimeout: 5 * time.Second})
	r := dialRaw(t, addr)

	r.send(wire.TypeStatus, wire.StatusReq{ID: 99})
	var em wire.ErrorMsg
	r.expect(wire.TypeError, &em)
	if em.ID != 99 || em.Code != wire.CodeBadReq {
		t.Fatalf("STATUS for an unknown job: %+v, want %s for job 99", em, wire.CodeBadReq)
	}

	// A running job, then canceled.
	var acc wire.Accepted
	r.send(wire.TypeSubmit, longSubmit(1))
	r.expect(wire.TypeAccepted, &acc)
	if st := r.status(1); st != wire.StateRunning {
		t.Fatalf("STATUS of a running job = %q", st)
	}
	r.send(wire.TypeCancel, wire.Cancel{ID: 1})
	r.expect(wire.TypeError, &em)
	if em.ID != 1 || em.Code != wire.CodeCanceled {
		t.Fatalf("canceled job's terminal frame: %+v", em)
	}
	if st := r.status(1); st != wire.StateCanceled {
		t.Fatalf("STATUS of a canceled job = %q", st)
	}

	// A done job; a late CANCEL changes nothing and draws no frame.
	r.send(wire.TypeSubmit, testSubmit(2))
	r.expect(wire.TypeAccepted, &acc)
	typ, payload := r.read()
	if typ != wire.TypeResult {
		t.Fatalf("got frame type %#x (%s), want RESULT", typ, payload)
	}
	if st := r.status(2); st != wire.StateDone {
		t.Fatalf("STATUS of a done job = %q", st)
	}
	r.send(wire.TypeCancel, wire.Cancel{ID: 2})
	if st := r.status(2); st != wire.StateDone {
		t.Fatalf("STATUS after CANCEL of a done job = %q, want %q", st, wire.StateDone)
	}

	// A failed job.
	bad := testSubmit(3)
	bad.App, bad.Mix = "", "no-such-mix"
	r.send(wire.TypeSubmit, bad)
	r.expect(wire.TypeAccepted, &acc)
	r.expect(wire.TypeError, &em)
	if em.ID != 3 || em.Code != wire.CodeBadReq {
		t.Fatalf("failed job's terminal frame: %+v", em)
	}
	if st := r.status(3); st != wire.StateFailed {
		t.Fatalf("STATUS of a failed job = %q", st)
	}
}

// TestIdleTimeoutSparesLiveJobs: Config.ReadTimeout closes a silent
// connection unless it has a running job or an attached trace session,
// and the clock starts again once the last live job ends, even though
// the client sends nothing more.
func TestIdleTimeoutSparesLiveJobs(t *testing.T) {
	const timeout = 200 * time.Millisecond
	_, addr := startServer(t, Config{ReadTimeout: timeout, DrainTimeout: 5 * time.Second, TraceIdleTimeout: time.Minute})

	t.Run("idle", func(t *testing.T) {
		dialRaw(t, addr).expectClosed(20 * timeout)
	})

	t.Run("running-job", func(t *testing.T) {
		r := dialRaw(t, addr)
		var acc wire.Accepted
		r.send(wire.TypeSubmit, longSubmit(1))
		r.expect(wire.TypeAccepted, &acc)
		r.stillOpen(5 * timeout)
		if st := r.status(1); st != wire.StateRunning {
			t.Fatalf("STATUS = %q", st)
		}
		r.send(wire.TypeCancel, wire.Cancel{ID: 1})
		var em wire.ErrorMsg
		r.expect(wire.TypeError, &em)
		r.expectClosed(20 * timeout)
	})

	t.Run("job-finishes", func(t *testing.T) {
		r := dialRaw(t, addr)
		var acc wire.Accepted
		r.send(wire.TypeSubmit, testSubmit(1))
		r.expect(wire.TypeAccepted, &acc)
		if typ, payload := r.read(); typ != wire.TypeResult {
			t.Fatalf("got frame type %#x (%s), want RESULT", typ, payload)
		}
		// The read loop has been waiting with no deadline since the
		// SUBMIT; the job's end must restart the clock by itself.
		r.expectClosed(20 * timeout)
	})

	t.Run("trace-session", func(t *testing.T) {
		r := dialRaw(t, addr)
		start := traceStartSpec()
		start.ID, start.Session = 1, "idle-clock"
		r.send(wire.TypeTraceStart, start)
		var resume wire.TraceResume
		r.expect(wire.TypeTraceResume, &resume)
		r.stillOpen(5 * timeout)
		r.send(wire.TypeTraceEnd, wire.TraceEnd{ID: 1})
		if typ, payload := r.read(); typ != wire.TypeResult && typ != wire.TypeError {
			t.Fatalf("got frame type %#x (%s), want the session's terminal frame", typ, payload)
		}
		r.expectClosed(20 * timeout)
	})
}

// scanLive counts c's running jobs the slow way.
func scanLive(c *conn) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, j := range c.jobs {
		if j.getState() == wire.StateRunning {
			n++
		}
	}
	return n
}

// pipeConn serves one in-memory connection and returns the server's view
// of it, the client's end, and a channel closed when serve returns.
func pipeConn(t *testing.T, srv *Server) (*conn, *rawConn, chan struct{}) {
	serverSide, clientSide := net.Pipe()
	t.Cleanup(func() { clientSide.Close() })
	c := srv.newConn(serverSide)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.serve()
	}()
	return c, handshakeRaw(t, clientSide), done
}

// TestLiveCountMatchesJobs: the connection's live count equals a scan of
// its jobs after every transition: submit, done, failed, cancel, and a
// trace session's attach, detach and end.
func TestLiveCountMatchesJobs(t *testing.T) {
	srv := New(Config{TraceIdleTimeout: time.Minute})
	// Trace sessions run under the drain root, which Serve would create.
	hardCtx, hardCancel := context.WithCancel(context.Background())
	defer hardCancel()
	srv.mu.Lock()
	srv.hardCtx, srv.hardCancel = hardCtx, hardCancel
	srv.mu.Unlock()
	c, r, served := pipeConn(t, srv)
	checkConn := func(c *conn, step string, want int) {
		t.Helper()
		if got, scan := c.liveJobs(), scanLive(c); got != scan || got != want {
			t.Fatalf("after %s: live count %d, scan %d, want %d", step, got, scan, want)
		}
	}
	check := func(step string, want int) {
		t.Helper()
		checkConn(c, step, want)
	}
	var (
		acc    wire.Accepted
		em     wire.ErrorMsg
		resume wire.TraceResume
	)

	r.send(wire.TypeSubmit, longSubmit(1))
	r.expect(wire.TypeAccepted, &acc)
	check("submit", 1)

	r.send(wire.TypeSubmit, testSubmit(2))
	r.expect(wire.TypeAccepted, &acc)
	if typ, payload := r.read(); typ != wire.TypeResult {
		t.Fatalf("got frame type %#x (%s), want RESULT", typ, payload)
	}
	check("done", 1)

	bad := testSubmit(3)
	bad.App, bad.Mix = "", "no-such-mix"
	r.send(wire.TypeSubmit, bad)
	r.expect(wire.TypeAccepted, &acc)
	r.expect(wire.TypeError, &em)
	check("failed", 1)

	r.send(wire.TypeCancel, wire.Cancel{ID: 1})
	r.expect(wire.TypeError, &em)
	check("cancel", 0)
	r.send(wire.TypeCancel, wire.Cancel{ID: 2})
	r.status(2) // the CANCEL has been handled once its successor is answered
	check("cancel after done", 0)

	start := traceStartSpec()
	start.ID, start.Session = 4, "live-count"
	r.send(wire.TypeTraceStart, start)
	r.expect(wire.TypeTraceResume, &resume)
	check("trace attach", 1)

	r.nc.Close()
	<-served
	check("trace detach", 1)

	// Re-attach from a second connection and end the session there.
	c2, r2, _ := pipeConn(t, srv)
	r2.send(wire.TypeTraceStart, start)
	r2.expect(wire.TypeTraceResume, &resume)
	checkConn(c2, "trace re-attach", 1)
	r2.send(wire.TypeTraceEnd, wire.TraceEnd{ID: 4})
	if typ, payload := r2.read(); typ != wire.TypeResult && typ != wire.TypeError {
		t.Fatalf("got frame type %#x (%s), want the session's terminal frame", typ, payload)
	}
	checkConn(c2, "trace end", 0)
}

// TestServeHitAllocBudget is the CI bench smoke for the hot-key path:
// BenchmarkServeHit may allocate no more per op than its
// BENCH_throughput.json micro entry records. Skipped unless
// MOCA_BENCH_SMOKE=1.
func TestServeHitAllocBudget(t *testing.T) {
	if os.Getenv("MOCA_BENCH_SMOKE") == "" {
		t.Skip("set MOCA_BENCH_SMOKE=1 to run the bench smoke")
	}
	data, err := os.ReadFile("../../../BENCH_throughput.json")
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
	m, ok := f.Micro["BenchmarkServeHit"]
	if !ok {
		t.Fatal("BENCH_throughput.json has no micro entry BenchmarkServeHit")
	}
	res := testing.Benchmark(BenchmarkServeHit)
	t.Logf("allocs/op: measured %d, budget %d", res.AllocsPerOp(), m.AllocsPerOp)
	if allocs := res.AllocsPerOp(); allocs > m.AllocsPerOp {
		t.Fatalf("hot-key hit allocates %d allocs/op, budget %d; if intentional, update the micro entry in BENCH_throughput.json",
			allocs, m.AllocsPerOp)
	}
}

// BenchmarkServeHit is the hot-key path end to end: one connection sends
// b.N requests for one memoized run, each a SUBMIT, ACCEPTED and RESULT
// exchange decoded by the client. Two untimed requests come first: the
// one that computes the run, and the second delivery, which keeps the
// encoded document, so every timed request is a steady-state memo hit.
func BenchmarkServeHit(b *testing.B) {
	_, addr := startServer(b, Config{DrainTimeout: 5 * time.Second})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	sub := testSubmit(0)
	for i := 0; i < 2; i++ {
		if _, _, err := c.Run(ctx, sub, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Run(ctx, sub, nil); err != nil {
			b.Fatal(err)
		}
	}
}
