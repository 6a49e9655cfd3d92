package server

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"moca/internal/wire"
)

// writeLog records every Write the server makes on one connection.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (w *writeLog) Write(b []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, bytes.Clone(b))
	w.mu.Unlock()
	return w.Conn.Write(b)
}

func (w *writeLog) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.writes)
}

func (w *writeLog) last() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes[len(w.writes)-1]
}

// loggedPipeConn is pipeConn with the server's writes recorded.
func loggedPipeConn(t *testing.T, srv *Server) (*conn, *rawConn, *writeLog) {
	serverSide, clientSide := net.Pipe()
	t.Cleanup(func() { clientSide.Close() })
	log := &writeLog{Conn: serverSide}
	c := srv.newConn(log)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.serve()
	}()
	t.Cleanup(func() {
		clientSide.Close()
		<-done
	})
	return c, handshakeRaw(t, clientSide), log
}

// hubSubscribers counts the hub's stream subscriptions.
func hubSubscribers(h *hub) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, subs := range h.subs {
		n += len(subs)
	}
	return n
}

// readFrameBytes reads one frame and returns it whole, header included.
func (r *rawConn) readFrameBytes(want byte) []byte {
	r.t.Helper()
	typ, payload := r.read()
	if typ != want {
		r.t.Fatalf("got frame type %#x (%s), want %#x", typ, payload, want)
	}
	var b bytes.Buffer
	if err := wire.WriteFrame(&b, typ, payload, 0); err != nil {
		r.t.Fatal(err)
	}
	return b.Bytes()
}

// TestInlineHitOneWrite: a SUBMIT of a memoized run is answered with
// ACCEPTED and RESULT in one write, byte for byte the frames the job
// goroutine delivered for the same job ID when the run was computed. The
// job is done at once: never live, STATUS says done, a later CANCEL draws
// no frame and changes nothing, and a STREAM subscribes nothing and
// starts no goroutine.
func TestInlineHitOneWrite(t *testing.T) {
	// A minute-long throttle keeps any streamer goroutine alive for the
	// whole test, so one that STREAM started would show.
	srv := New(Config{StreamInterval: time.Minute})

	_, first, _ := loggedPipeConn(t, srv)
	first.send(wire.TypeSubmit, testSubmit(1))
	computed := append(first.readFrameBytes(wire.TypeAccepted), first.readFrameBytes(wire.TypeResult)...)

	c, r, log := loggedPipeConn(t, srv)
	before := log.count()
	r.send(wire.TypeSubmit, testSubmit(1))
	answered := append(r.readFrameBytes(wire.TypeAccepted), r.readFrameBytes(wire.TypeResult)...)
	if n := log.count() - before; n != 1 {
		t.Fatalf("memo hit answered in %d writes, want 1", n)
	}
	if !bytes.Equal(log.last(), answered) {
		t.Fatalf("the one write holds %q, the client read %q", log.last(), answered)
	}
	if !bytes.Equal(answered, computed) {
		t.Fatalf("memo hit frames differ from the computed run's:\nhit      %.200q\ncomputed %.200q", answered, computed)
	}
	if got, scan := c.liveJobs(), scanLive(c); got != 0 || scan != 0 {
		t.Fatalf("after a memo hit: live count %d, scan %d, want 0", got, scan)
	}

	if st := r.status(1); st != wire.StateDone {
		t.Fatalf("STATUS of a memo hit = %q, want %q", st, wire.StateDone)
	}
	r.send(wire.TypeCancel, wire.Cancel{ID: 1})
	if st := r.status(1); st != wire.StateDone {
		t.Fatalf("STATUS after CANCEL of a memo hit = %q, want %q", st, wire.StateDone)
	}

	r.send(wire.TypeStream, wire.StreamReq{ID: 1})
	r.status(1) // the STREAM has been handled once its successor is answered
	if n := hubSubscribers(srv.hub); n != 0 {
		t.Fatalf("STREAM of a finished job left %d hub subscriptions", n)
	}
	waited := make(chan struct{})
	go func() {
		c.jwg.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("a goroutine outlives the STREAM of a finished job")
	}
	r.stillOpen(100 * time.Millisecond)

	srv.mu.Lock()
	run := srv.runners[testKey()]
	srv.mu.Unlock()
	if st := run.Stats(); st.Simulated != 1 || st.MemoryHits != 1 {
		t.Fatalf("simulated %d, memory hits %d; want 1 and 1", st.Simulated, st.MemoryHits)
	}
}

// TestInlineHitIdleClock: a connection whose jobs were all memo hits has
// no live job, so the idle timeout closes it once it falls silent.
func TestInlineHitIdleClock(t *testing.T) {
	const timeout = 200 * time.Millisecond
	_, addr := startServer(t, Config{ReadTimeout: timeout, DrainTimeout: 5 * time.Second})
	r := dialRaw(t, addr)
	var acc wire.Accepted
	for id := uint32(1); id <= 2; id++ {
		r.send(wire.TypeSubmit, testSubmit(id))
		r.expect(wire.TypeAccepted, &acc)
		if typ, payload := r.read(); typ != wire.TypeResult {
			t.Fatalf("got frame type %#x (%s), want RESULT", typ, payload)
		}
	}
	r.expectClosed(20 * timeout)
}

// TestInlineHitPipelined: a client that sends 16 SUBMITs of a memoized run
// before reading anything gets 16 ACCEPTED/RESULT pairs in submission
// order. It runs over TCP: net.Pipe has no buffer, so a client that reads
// nothing until it has written everything would deadlock by construction.
func TestInlineHitPipelined(t *testing.T) {
	srv, addr := startServer(t, Config{DrainTimeout: 5 * time.Second})
	r := dialRaw(t, addr)
	var acc wire.Accepted
	r.send(wire.TypeSubmit, testSubmit(1))
	r.expect(wire.TypeAccepted, &acc)
	_, payload := r.read()
	_, want, err := wire.SplitResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	want = bytes.Clone(want)

	const n = 16
	for id := uint32(2); id < 2+n; id++ {
		r.send(wire.TypeSubmit, testSubmit(id))
	}
	for id := uint32(2); id < 2+n; id++ {
		r.expect(wire.TypeAccepted, &acc)
		if acc.ID != id {
			t.Fatalf("ACCEPTED for job %d, want %d", acc.ID, id)
		}
		typ, payload := r.read()
		if typ != wire.TypeResult {
			t.Fatalf("got frame type %#x (%s), want RESULT for job %d", typ, payload, id)
		}
		got, doc, err := wire.SplitResult(payload)
		if err != nil || got != id || !bytes.Equal(doc, want) {
			t.Fatalf("RESULT for job %d (%v), want job %d and the computed document", got, err, id)
		}
	}

	srv.mu.Lock()
	run := srv.runners[testKey()]
	srv.mu.Unlock()
	if st := run.Stats(); st.Simulated != 1 || st.MemoryHits != n {
		t.Fatalf("simulated %d, memory hits %d; want 1 and %d", st.Simulated, st.MemoryHits, n)
	}
}
