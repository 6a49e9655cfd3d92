package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"moca/internal/cpu"
	"moca/internal/trace"
	"moca/internal/wire"
)

// span is one timed call, recorded from the benchmark's side of a public
// entry point. Spans of one op or request share Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the tracer's memory; later spans are counted, not kept.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0      time.Time
	next    atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span ID, so children can name their parent before the
// parent ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) record(id, parent int64, name, op string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// durations returns the durations of the spans with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as dir/spans.json.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans   []span `json:"spans"`
		Dropped int    `json:"dropped"`
	}{t.spans, t.dropped})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), data, 0o644)
}

// startProfile starts a CPU profile; the returned function stops it and
// returns the encoded profile.
func startProfile() func() []byte {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return func() []byte { return nil }
	}
	return func() []byte {
		pprof.StopCPUProfile()
		return buf.Bytes()
	}
}

// offClockLabel is the profiler label key of the benchmark's own work
// between timed ops; foldProfile skips samples that carry it.
const offClockLabel = "bench.offclock"

// unprofiled runs fn, and the goroutines it starts, under offClockLabel.
func unprofiled(ctx context.Context, fn func()) {
	pprof.Do(ctx, pprof.Labels(offClockLabel, "1"), func(context.Context) { fn() })
}

// decodeStats counts what a timedStream served. The core pulls from its
// stream on the simulation goroutine only, so no locking is needed.
type decodeStats struct {
	items, ns int64
}

// timedStream times the trace reader's batch calls from outside. It
// forwards NextBatch, Refill and Err, so the core keeps the zero-copy path
// it takes on the bare reader.
type timedStream struct {
	rs     trace.ReplayStream
	src    cpu.BorrowStream
	tr     *tracer
	parent int64
	st     *decodeStats
}

func newTimedStream(rs trace.ReplayStream, tr *tracer, parent int64, st *decodeStats) (*timedStream, error) {
	src, ok := rs.(cpu.BorrowStream)
	if !ok {
		return nil, fmt.Errorf("trace reader %T has no zero-copy batch path", rs)
	}
	return &timedStream{rs: rs, src: src, tr: tr, parent: parent, st: st}, nil
}

func (s *timedStream) note(name string, t0 time.Time, items int) {
	t1 := time.Now()
	s.st.items += int64(items)
	s.st.ns += int64(t1.Sub(t0))
	if name != "" {
		s.tr.record(s.tr.newID(), s.parent, name, "", t0, t1)
	}
}

// Next is counted but not kept as a span: one span per instruction would
// swamp the tracer.
func (s *timedStream) Next() (cpu.Instr, bool) {
	t0 := time.Now()
	in, ok := s.src.Next()
	n := 0
	if ok {
		n = 1
	}
	s.note("", t0, n)
	return in, ok
}

func (s *timedStream) Refill(dst []cpu.Instr) int {
	t0 := time.Now()
	n := s.src.Refill(dst)
	s.note("trace.Refill", t0, n)
	return n
}

func (s *timedStream) NextBatch() []cpu.Instr {
	t0 := time.Now()
	b := s.src.NextBatch()
	s.note("trace.NextBatch", t0, len(b))
	return b
}

func (s *timedStream) Err() error { return s.rs.Err() }

// frameListener is the listener the server is given. On connections
// accepted while a tracer is set, it follows the wire framing in both
// directions and records one server.service span per request: from the
// moment the server has read a whole SUBMIT frame to the moment it has
// written that job's RESULT or ERROR frame. It also counts the bytes.
type frameListener struct {
	net.Listener
	tr     atomic.Pointer[tracer]
	accept atomic.Int64
	bytes  atomic.Int64
}

func (l *frameListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	idx := l.accept.Add(1) - 1
	tr := l.tr.Load()
	if tr == nil {
		return nc, nil
	}
	return &frameConn{Conn: nc, l: l, tr: tr, idx: idx}, nil
}

// frameConn is one traced server-side connection. The server reads from
// one goroutine and serializes its writes, so each scanner has one user;
// mu guards the queue both sides touch.
type frameConn struct {
	net.Conn
	l   *frameListener
	tr  *tracer
	idx int64

	rd, wr frameScanner

	mu      sync.Mutex
	pending []time.Time // SUBMIT frames read, awaiting their terminal frame
	served  int
}

func (c *frameConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.bytes.Add(int64(n))
	c.rd.feed(b[:n], func(typ byte) {
		if typ == wire.TypeSubmit {
			c.mu.Lock()
			c.pending = append(c.pending, time.Now())
			c.mu.Unlock()
		}
	})
	return n, err
}

func (c *frameConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.l.bytes.Add(int64(n))
	c.wr.feed(b[:n], func(typ byte) {
		if typ != wire.TypeResult && typ != wire.TypeError {
			return
		}
		c.mu.Lock()
		if len(c.pending) == 0 {
			c.mu.Unlock()
			return
		}
		start := c.pending[0]
		c.pending = c.pending[1:]
		op := fmt.Sprintf("%d.%d", c.idx, c.served)
		c.served++
		c.mu.Unlock()
		c.tr.record(c.tr.newID(), 0, "server.service", op, start, time.Now())
	})
	return n, err
}

// frameScanner follows wire frame boundaries (uint32 big-endian length of
// type byte plus payload, then the type byte) through a byte stream.
type frameScanner struct {
	hdr  [5]byte
	nhdr int
	left uint32
}

// feed consumes b and calls done with the type of every frame that
// completes in it.
func (f *frameScanner) feed(b []byte, done func(typ byte)) {
	for len(b) > 0 {
		if f.nhdr < len(f.hdr) {
			n := copy(f.hdr[f.nhdr:], b)
			f.nhdr += n
			b = b[n:]
			if f.nhdr < len(f.hdr) {
				return
			}
			f.left = 0
			if length := binary.BigEndian.Uint32(f.hdr[:4]); length > 1 {
				f.left = length - 1
			}
		}
		n := uint32(len(b))
		if n > f.left {
			n = f.left
		}
		b = b[n:]
		f.left -= n
		if f.left == 0 {
			done(f.hdr[4])
			f.nhdr = 0
		}
	}
}
