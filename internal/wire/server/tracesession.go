package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"moca/internal/cpu"
	"moca/internal/exp"
	"moca/internal/trace"
	"moca/internal/wire"
	"moca/internal/workload"
)

// A trace session is a simulation fed block-by-block from the network
// (wire.TraceStart and friends): the client scans a v2 trace locally and
// pushes each frame; the server decodes it into the session's instruction
// queue, the simulation consumes it through a cpu.BatchStream, and every
// accepted block is acknowledged with the position now owned by the
// server. The session — queue, decode state, the half-run simulation —
// survives the client's connection: a reconnect with the same token
// re-attaches and resumes from the last acknowledged position, so a
// corpus larger than RAM (or a flaky link) streams through without ever
// being resident or replayed from the start.

// traceQueueDepth bounds decoded blocks buffered ahead of the simulation.
// The push path blocks when it is full: TCP backpressure is the flow
// control.
const traceQueueDepth = 4

// traceSession is one remote-fed simulation.
type traceSession struct {
	srv   *Server
	token string
	// spec fields fixed at creation; re-attaches must repeat them.
	system  string
	app     string
	measure uint64

	blocks chan []cpu.Instr // decoded, owned batches awaiting the sim
	free   chan []cpu.Instr // recycled batches
	done   chan struct{}    // closed when the simulation returns
	cancel context.CancelFunc

	result []byte // terminal result JSON (nil on error)
	runErr error  // terminal simulation error

	mu       sync.Mutex
	attached *conn
	dec      trace.BlockDecoder
	ackPos   wire.TracePos // everything below here is server-owned
	ended    bool          // TraceEnd received; blocks is closed
	removed  bool
	idle     *time.Timer // armed while detached; expiry kills the session
}

// traceIdleTimeout reaps sessions no client has re-attached to.
func (c Config) traceIdleTimeout() time.Duration {
	if c.TraceIdleTimeout == 0 {
		return 2 * time.Minute
	}
	return c.TraceIdleTimeout
}

// feedStream adapts the session's block queue to cpu.BatchStream. It runs
// on the simulation goroutine; Refill blocks until the client pushes the
// next block, the stream ends, or the session's context is canceled.
type feedStream struct {
	s   *traceSession
	ctx context.Context
	cur []cpu.Instr
	idx int
}

func (f *feedStream) Next() (cpu.Instr, bool) {
	if f.idx < len(f.cur) {
		in := f.cur[f.idx]
		f.idx++
		return in, true
	}
	var one [1]cpu.Instr
	if f.Refill(one[:]) == 0 {
		return cpu.Instr{}, false
	}
	return one[0], true
}

func (f *feedStream) Refill(dst []cpu.Instr) int {
	for f.idx >= len(f.cur) {
		if f.cur != nil {
			f.s.recycle(f.cur)
			f.cur = nil
		}
		select {
		case batch, ok := <-f.s.blocks:
			if !ok {
				return 0 // clean end of trace
			}
			f.cur, f.idx = batch, 0
		case <-f.ctx.Done():
			return 0 // session canceled; RunContext surfaces the cause
		}
	}
	n := copy(dst, f.cur[f.idx:])
	f.idx += n
	return n
}

var _ cpu.BatchStream = (*feedStream)(nil)

func (ts *traceSession) recycle(batch []cpu.Instr) {
	select {
	case ts.free <- batch[:0]:
	default:
	}
}

// traceSession finds or creates the session for one TraceStart. The
// returned session is attached to c; the caller must detach on teardown.
func (s *Server) traceSession(c *conn, start wire.TraceStart) (*traceSession, *wire.ErrorMsg) {
	s.mu.Lock()
	ts := s.traces[start.Session]
	if ts == nil {
		if s.drain {
			s.mu.Unlock()
			return nil, &wire.ErrorMsg{ID: start.ID, Code: wire.CodeDraining, Msg: "server is shutting down"}
		}
		def, err := exp.SystemByName(start.System)
		if err == nil {
			err = exp.CheckReplay(def)
		}
		if err != nil {
			s.mu.Unlock()
			return nil, &wire.ErrorMsg{ID: start.ID, Code: wire.CodeBadReq, Msg: err.Error()}
		}
		if _, ok := workload.ByName(start.App); !ok {
			s.mu.Unlock()
			return nil, &wire.ErrorMsg{ID: start.ID, Code: wire.CodeBadReq, Msg: fmt.Sprintf("unknown application %q", start.App)}
		}
		measure := start.Measure
		if measure == 0 {
			measure = s.cfg.measure()
		}
		ts = &traceSession{
			srv:     s,
			token:   start.Session,
			system:  start.System,
			app:     start.App,
			measure: measure,
			blocks:  make(chan []cpu.Instr, traceQueueDepth),
			free:    make(chan []cpu.Instr, traceQueueDepth+1),
			done:    make(chan struct{}),
		}
		ctx, cancel := context.WithCancel(s.hardCtx)
		ts.cancel = cancel
		s.traces[start.Session] = ts
		s.mu.Unlock()
		//moca:gorountracked session lifetime is tracked by ts.done; the idle reaper or TRACE_END terminates it
		go ts.run(ctx, def)
	} else {
		s.mu.Unlock()
	}

	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.removed {
		return nil, &wire.ErrorMsg{ID: start.ID, Code: wire.CodeBadReq, Msg: "session expired"}
	}
	if ts.attached != nil && ts.attached != c {
		return nil, &wire.ErrorMsg{ID: start.ID, Code: wire.CodeBusy, Msg: "session attached from another connection"}
	}
	if ts.system != start.System || ts.app != start.App {
		return nil, &wire.ErrorMsg{ID: start.ID, Code: wire.CodeBadReq,
			Msg: fmt.Sprintf("session %q runs %s/%s", ts.token, ts.system, ts.app)}
	}
	ts.attached = c
	if ts.idle != nil {
		ts.idle.Stop()
		ts.idle = nil
	}
	return ts, nil
}

// run replays the session's stream on its own goroutine, on the runner a
// SUBMIT of the same measure uses, so the result equals that SUBMIT's.
func (ts *traceSession) run(ctx context.Context, def exp.SystemDef) {
	defer close(ts.done)
	r := ts.srv.runner(runnerKey{measure: ts.measure, window: ts.srv.cfg.profileWindow()})
	res, err := r.Replay(ctx, def, ts.app, &feedStream{s: ts, ctx: ctx})
	if err != nil {
		ts.runErr = err
		return
	}
	ts.result, ts.runErr = res.MarshalJSON()
}

// resumePos returns the position the attached client must push from.
func (ts *traceSession) resumePos() wire.TracePos {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.ackPos
}

// push decodes one block frame, enqueues its instructions for the
// simulation, and advances the acknowledged position. nextOff is the
// client's byte offset after this block, echoed in the ack. Called only
// from the attached connection's read loop, so decode state needs no
// extra ordering.
func (ts *traceSession) push(frame []byte, nextOff uint64) (wire.TracePos, error) {
	ts.mu.Lock()
	if ts.ended {
		ts.mu.Unlock()
		return wire.TracePos{}, errors.New("block after TraceEnd")
	}
	expect := ts.ackPos.Seq
	ts.mu.Unlock()

	items, err := ts.dec.DecodeFrame(frame, expect)
	if err != nil {
		return wire.TracePos{}, err
	}
	var batch []cpu.Instr
	select {
	case batch = <-ts.free:
	default:
	}
	batch = append(batch[:0], items...)

	select {
	case ts.blocks <- batch:
	case <-ts.done:
		// The run already finished (quota met or failed): the remaining
		// blocks are not needed, but acknowledging them keeps the client's
		// push loop simple — it learns the outcome at TraceEnd.
	}

	ts.mu.Lock()
	ts.ackPos = wire.TracePos{ByteOff: nextOff, Seq: expect + uint64(len(items))}
	pos := ts.ackPos
	ts.mu.Unlock()
	return pos, nil
}

// end closes the instruction stream (idempotent).
func (ts *traceSession) end() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if !ts.ended {
		ts.ended = true
		close(ts.blocks)
	}
}

// detach drops the connection's attachment and arms the idle reaper.
func (ts *traceSession) detach(c *conn) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.attached != c {
		return
	}
	ts.attached = nil
	if ts.removed {
		return
	}
	ts.idle = time.AfterFunc(ts.srv.cfg.traceIdleTimeout(), ts.expire)
}

// expire kills a session no client came back for.
func (ts *traceSession) expire() {
	ts.mu.Lock()
	if ts.attached != nil || ts.removed {
		ts.mu.Unlock()
		return
	}
	ts.removed = true
	ts.mu.Unlock()
	ts.srv.logf("trace session %q expired", ts.token)
	ts.remove()
}

// remove cancels the run and deletes the session from the server.
func (ts *traceSession) remove() {
	ts.cancel()
	ts.srv.mu.Lock()
	if ts.srv.traces[ts.token] == ts {
		delete(ts.srv.traces, ts.token)
	}
	ts.srv.mu.Unlock()
}

// terminate is the CANCEL path: the client abandons the session for good.
func (ts *traceSession) terminate() {
	ts.mu.Lock()
	ts.removed = true
	if ts.idle != nil {
		ts.idle.Stop()
		ts.idle = nil
	}
	ts.mu.Unlock()
	ts.remove()
}

// handleTraceStart serves one TRACE_START frame.
func (c *conn) handleTraceStart(start wire.TraceStart) error {
	if start.Session == "" || start.App == "" || start.System == "" {
		return c.send(wire.TypeError, wire.ErrorMsg{ID: start.ID, Code: wire.CodeBadReq, Msg: "session, system, and app are required"})
	}
	c.mu.Lock()
	if _, dup := c.jobs[start.ID]; dup {
		c.mu.Unlock()
		return c.send(wire.TypeError, wire.ErrorMsg{ID: start.ID, Code: wire.CodeBadReq, Msg: "job id already in use"})
	}
	c.mu.Unlock()

	ts, werr := c.srv.traceSession(c, start)
	if werr != nil {
		return c.send(wire.TypeError, *werr)
	}
	j := &job{id: start.ID, sess: ts, state: wire.StateRunning}
	c.mu.Lock()
	c.register(j)
	c.mu.Unlock()
	return c.send(wire.TypeTraceResume, wire.TraceResume{ID: start.ID, Pos: ts.resumePos()})
}

// handleTraceBlock serves one TRACE_BLOCK frame: decode, enqueue, ack. A
// decode fault is a job-level typed error (the client's trace bytes are
// wrong, not its framing), after which the session stays resumable from
// the last good position.
func (c *conn) handleTraceBlock(payload []byte) error {
	id, nextOff, frame, err := wire.SplitTraceBlock(payload)
	if err != nil {
		return err // protocol-level: malformed binary preamble
	}
	j := c.lookup(id)
	if j == nil || j.sess == nil {
		return c.send(wire.TypeError, wire.ErrorMsg{ID: id, Code: wire.CodeBadReq, Msg: "unknown trace job"})
	}
	pos, err := j.sess.push(frame, nextOff)
	if err != nil {
		return c.send(wire.TypeError, wire.ErrorMsg{ID: id, Code: wire.CodeTrace, Msg: err.Error()})
	}
	return c.send(wire.TypeTraceAck, wire.TraceAck{ID: id, Pos: pos})
}

// handleTraceEnd closes the session's stream and delivers the terminal
// frame from a waiter goroutine once the simulation finishes.
func (c *conn) handleTraceEnd(end wire.TraceEnd) error {
	j := c.lookup(end.ID)
	if j == nil || j.sess == nil {
		return c.send(wire.TypeError, wire.ErrorMsg{ID: end.ID, Code: wire.CodeBadReq, Msg: "unknown trace job"})
	}
	ts := j.sess
	ts.end()
	c.jwg.Add(1)
	go func() {
		defer c.jwg.Done()
		<-ts.done
		if ts.runErr != nil {
			if errors.Is(ts.runErr, context.Canceled) {
				c.deliver(j, wire.StateCanceled, wire.CodeCanceled, ts.runErr.Error(), nil)
			} else {
				c.deliver(j, wire.StateFailed, wire.CodeFailed, ts.runErr.Error(), nil)
			}
			return
		}
		// The same frame as runJob's: sim.Result JSON is deterministic,
		// so a resumed client receives byte-identical result bytes to a
		// local run of the identical instruction stream.
		frame, err := wire.AppendResultFrame(nil, j.id, ts.result, c.srv.cfg.maxFrame())
		if err != nil {
			c.deliver(j, wire.StateFailed, wire.CodeFailed, err.Error(), nil)
			return
		}
		c.deliver(j, wire.StateDone, "", "", frame)
	}()
	return nil
}
