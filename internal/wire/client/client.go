// Package client is the Go client for the moca-served wire protocol
// (internal/wire). moca-sim -remote is its primary user: it submits one
// run, streams progress, and decodes the byte-identical result the server
// fans out to every client joined to the same simulation.
package client

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"moca/internal/sim"
	"moca/internal/trace"
	"moca/internal/wire"
)

// Options tune a Client; the zero value uses the defaults below.
type Options struct {
	// DialTimeout bounds the TCP connect and handshake (0 = 10s).
	DialTimeout time.Duration
	// FrameTimeout bounds each frame write and each read while a response
	// is due (0 = 10 minutes: a submit's next frame may be a full
	// simulation away).
	FrameTimeout time.Duration
	// MaxFrame bounds frames both ways (0 = wire.DefaultMaxFrame).
	MaxFrame uint32
}

func (o Options) dialTimeout() time.Duration {
	if o.DialTimeout == 0 {
		return 10 * time.Second
	}
	return o.DialTimeout
}

func (o Options) frameTimeout() time.Duration {
	if o.FrameTimeout == 0 {
		return 10 * time.Minute
	}
	return o.FrameTimeout
}

func (o Options) maxFrame() uint32 {
	if o.MaxFrame == 0 {
		return wire.DefaultMaxFrame
	}
	return o.MaxFrame
}

// Client is one wire-protocol connection. Not safe for concurrent use:
// drive it from one goroutine (run one job at a time), or open one client
// per concurrent job.
type Client struct {
	opts   Options
	nc     net.Conn
	br     *bufio.Reader
	nextID uint32
}

// RemoteError is a server-reported job or protocol failure.
type RemoteError struct {
	Code string
	Msg  string
}

func (e *RemoteError) Error() string { return fmt.Sprintf("wire: server: %s: %s", e.Code, e.Msg) }

// Dial connects and performs the HELLO handshake.
func Dial(addr string, opts Options) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, opts.dialTimeout())
	if err != nil {
		return nil, err
	}
	c := &Client{opts: opts, nc: nc, br: bufio.NewReader(nc)}
	deadline := time.Now().Add(opts.dialTimeout())
	nc.SetDeadline(deadline)
	if err := wire.WriteMsg(nc, wire.TypeHello, wire.Hello{Version: wire.ProtocolVersion}, opts.maxFrame()); err != nil {
		nc.Close()
		return nil, err
	}
	typ, payload, err := wire.ReadFrame(c.br, opts.maxFrame())
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	switch typ {
	case wire.TypeHelloOK:
		var ok wire.HelloOK
		if err := wire.Decode(payload, &ok); err != nil {
			nc.Close()
			return nil, err
		}
		if ok.Version != wire.ProtocolVersion {
			nc.Close()
			return nil, fmt.Errorf("%w: client %d, server %d", wire.ErrVersion, wire.ProtocolVersion, ok.Version)
		}
	case wire.TypeError:
		var em wire.ErrorMsg
		_ = wire.Decode(payload, &em)
		nc.Close()
		return nil, &RemoteError{Code: em.Code, Msg: em.Msg}
	default:
		nc.Close()
		return nil, fmt.Errorf("wire: handshake: unexpected frame type 0x%02x", typ)
	}
	nc.SetDeadline(time.Time{})
	return c, nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.nc.Close() }

func (c *Client) send(typ byte, v any) error {
	c.nc.SetWriteDeadline(time.Now().Add(c.opts.frameTimeout()))
	return wire.WriteMsg(c.nc, typ, v, c.opts.maxFrame())
}

// Job identifies a submitted run on this client.
type Job struct {
	ID uint32
	// Raw is the result document exactly as framed by the server
	// (byte-identical across all clients joined to the run); set once the
	// job completes.
	Raw []byte
}

// Submit registers a job with the server (assigning the connection's next
// job ID if spec.ID is zero) and waits for the ACCEPTED frame.
func (c *Client) Submit(spec wire.Submit) (*Job, error) {
	if spec.ID == 0 {
		c.nextID++
		spec.ID = c.nextID
	}
	if err := c.send(wire.TypeSubmit, spec); err != nil {
		return nil, err
	}
	typ, payload, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	switch typ {
	case wire.TypeAccepted:
		var acc wire.Accepted
		if err := wire.Decode(payload, &acc); err != nil {
			return nil, err
		}
		if acc.ID != spec.ID {
			return nil, fmt.Errorf("wire: ACCEPTED for job %d, want %d", acc.ID, spec.ID)
		}
		return &Job{ID: spec.ID}, nil
	case wire.TypeError:
		var em wire.ErrorMsg
		_ = wire.Decode(payload, &em)
		return nil, &RemoteError{Code: em.Code, Msg: em.Msg}
	default:
		return nil, fmt.Errorf("wire: unexpected frame type 0x%02x awaiting ACCEPTED", typ)
	}
}

// Stream subscribes to the job's progress ticks.
func (c *Client) Stream(j *Job) error {
	return c.send(wire.TypeStream, wire.StreamReq{ID: j.ID})
}

// Cancel abandons the job. The server answers with the job's terminal
// ERROR frame, which Wait surfaces as a canceled RemoteError.
func (c *Client) Cancel(j *Job) error {
	return c.send(wire.TypeCancel, wire.Cancel{ID: j.ID})
}

// Wait reads frames until the job terminates, invoking onProgress (if
// non-nil) for PROGRESS ticks and onSnapshot for live metric SNAPSHOT
// frames. If ctx fires first, Wait sends CANCEL and keeps reading until
// the server confirms with the job's terminal frame, then returns
// ctx.Err(). On success the decoded result is returned and j.Raw holds
// the exact frame bytes.
func (c *Client) Wait(ctx context.Context, j *Job, onProgress func(done, total uint64), onSnapshot func(obs []byte)) (*sim.Result, error) {
	// Fire the CANCEL from a watcher so it goes out even while this
	// goroutine is blocked mid-read. The watcher is Wait's only writer. A
	// context that can never fire needs no watcher.
	if done := ctx.Done(); done != nil {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		//moca:gorountracked exits when stopWatch closes on Wait's return; bounded by this call
		go func() {
			select {
			case <-done:
				_ = c.Cancel(j)
			case <-stopWatch:
			}
		}()
	}
	for {
		typ, payload, err := c.readFrame()
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
		switch typ {
		case wire.TypeProgress:
			var p wire.Progress
			if err := wire.Decode(payload, &p); err != nil {
				return nil, err
			}
			if p.ID == j.ID && onProgress != nil {
				onProgress(p.Done, p.Total)
			}
		case wire.TypeSnapshot:
			var s wire.Snapshot
			if err := wire.Decode(payload, &s); err != nil {
				return nil, err
			}
			if s.ID == j.ID && onSnapshot != nil {
				onSnapshot(s.Obs)
			}
		case wire.TypeJobState:
			// Stale STATUS answer; ignore.
		case wire.TypeResult:
			// SplitResult checks only the envelope; decoding the document
			// is its one full scan.
			id, doc, err := wire.SplitResult(payload)
			if err != nil {
				return nil, err
			}
			if id != j.ID {
				return nil, fmt.Errorf("wire: RESULT for job %d, want %d", id, j.ID)
			}
			res := new(sim.Result)
			if err := res.UnmarshalJSON(doc); err != nil {
				return nil, fmt.Errorf("wire: decoding result: %w", err)
			}
			j.Raw = doc
			return res, nil
		case wire.TypeError:
			var em wire.ErrorMsg
			if err := wire.Decode(payload, &em); err != nil {
				return nil, err
			}
			if em.ID != j.ID && em.ID != 0 {
				continue // another job on this connection; not ours
			}
			if em.Code == wire.CodeCanceled {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				return nil, context.Canceled
			}
			return nil, &RemoteError{Code: em.Code, Msg: em.Msg}
		default:
			return nil, fmt.Errorf("wire: unexpected frame type 0x%02x", typ)
		}
	}
}

// Trace streaming: push a local v2 block trace into a server-side
// simulation, block by block, with resume-after-reconnect. The protocol
// is synchronous per block (push TRACE_BLOCK, read TRACE_ACK), so TCP
// backpressure is the flow control and the last acknowledged position is
// always exact: after a disconnect, TraceStart on a fresh connection with
// the same session token returns precisely where to resume.

// TraceStart opens (or re-attaches to) a trace-streaming session and
// returns the job plus the position to push from — zero for a fresh
// session, the last acknowledged block boundary after a reconnect.
func (c *Client) TraceStart(spec wire.TraceStart) (*Job, trace.Position, error) {
	if spec.ID == 0 {
		c.nextID++
		spec.ID = c.nextID
	}
	if err := c.send(wire.TypeTraceStart, spec); err != nil {
		return nil, trace.Position{}, err
	}
	typ, payload, err := c.readFrame()
	if err != nil {
		return nil, trace.Position{}, err
	}
	switch typ {
	case wire.TypeTraceResume:
		var tr wire.TraceResume
		if err := wire.Decode(payload, &tr); err != nil {
			return nil, trace.Position{}, err
		}
		if tr.ID != spec.ID {
			return nil, trace.Position{}, fmt.Errorf("wire: TRACE_RESUME for job %d, want %d", tr.ID, spec.ID)
		}
		return &Job{ID: spec.ID}, trace.Position{ByteOff: tr.Pos.ByteOff, Seq: tr.Pos.Seq}, nil
	case wire.TypeError:
		var em wire.ErrorMsg
		_ = wire.Decode(payload, &em)
		return nil, trace.Position{}, &RemoteError{Code: em.Code, Msg: em.Msg}
	default:
		return nil, trace.Position{}, fmt.Errorf("wire: unexpected frame type 0x%02x awaiting TRACE_RESUME", typ)
	}
}

// PushTraceBlock ships one raw block frame (trace.BlockScanner.Frame) and
// waits for its acknowledgment. nextOff is the local byte offset of the
// boundary after this block (trace.BlockScanner.NextPos().ByteOff); the
// returned position echoes it and is durable on the server.
func (c *Client) PushTraceBlock(j *Job, nextOff uint64, frame []byte) (trace.Position, error) {
	payload := wire.AppendTraceBlock(make([]byte, 0, 12+len(frame)), j.ID, nextOff, frame)
	c.nc.SetWriteDeadline(time.Now().Add(c.opts.frameTimeout()))
	if err := wire.WriteFrame(c.nc, wire.TypeTraceBlock, payload, c.opts.maxFrame()); err != nil {
		return trace.Position{}, err
	}
	typ, resp, err := c.readFrame()
	if err != nil {
		return trace.Position{}, err
	}
	switch typ {
	case wire.TypeTraceAck:
		var ack wire.TraceAck
		if err := wire.Decode(resp, &ack); err != nil {
			return trace.Position{}, err
		}
		if ack.ID != j.ID {
			return trace.Position{}, fmt.Errorf("wire: TRACE_ACK for job %d, want %d", ack.ID, j.ID)
		}
		return trace.Position{ByteOff: ack.Pos.ByteOff, Seq: ack.Pos.Seq}, nil
	case wire.TypeError:
		var em wire.ErrorMsg
		_ = wire.Decode(resp, &em)
		return trace.Position{}, &RemoteError{Code: em.Code, Msg: em.Msg}
	default:
		return trace.Position{}, fmt.Errorf("wire: unexpected frame type 0x%02x awaiting TRACE_ACK", typ)
	}
}

// PushTrace streams every block of a v2 trace from rs, starting at the
// resume position from (as returned by TraceStart). onAck, if non-nil,
// observes each acknowledged position. It returns the final acknowledged
// position; the caller finishes with TraceEnd.
func (c *Client) PushTrace(j *Job, rs io.ReadSeeker, from trace.Position, onAck func(trace.Position)) (trace.Position, error) {
	sc, err := trace.NewBlockScannerAt(rs, from)
	if err != nil {
		return from, err
	}
	last := from
	for sc.Scan() {
		ack, err := c.PushTraceBlock(j, sc.NextPos().ByteOff, sc.Frame())
		if err != nil {
			return last, err
		}
		last = ack
		if onAck != nil {
			onAck(ack)
		}
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	return last, nil
}

// TraceEnd declares the trace complete and waits for the simulation's
// terminal frame, returning the decoded result (j.Raw holds the exact
// bytes).
func (c *Client) TraceEnd(ctx context.Context, j *Job) (*sim.Result, error) {
	if err := c.send(wire.TypeTraceEnd, wire.TraceEnd{ID: j.ID}); err != nil {
		return nil, err
	}
	return c.Wait(ctx, j, nil, nil)
}

// Run is the one-shot convenience: Submit, optionally Stream, Wait.
func (c *Client) Run(ctx context.Context, spec wire.Submit, onProgress func(done, total uint64)) (*sim.Result, *Job, error) {
	j, err := c.Submit(spec)
	if err != nil {
		return nil, nil, err
	}
	if onProgress != nil {
		if err := c.Stream(j); err != nil {
			return nil, j, err
		}
	}
	res, err := c.Wait(ctx, j, onProgress, nil)
	return res, j, err
}

// readFrame applies the frame deadline. When waiting under a context,
// Wait relies on the server's terminal frame to end the read; the
// deadline is the backstop against a hung server.
func (c *Client) readFrame() (byte, []byte, error) {
	c.nc.SetReadDeadline(time.Now().Add(c.opts.frameTimeout()))
	return wire.ReadFrame(c.br, c.opts.maxFrame())
}
