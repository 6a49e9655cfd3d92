// Package server implements the moca-served serving layer: a TCP server
// speaking the internal/wire protocol that multiplexes any number of
// concurrent clients onto the experiment harness. Identical SUBMIT keys —
// from one connection or a thousand — join a single simulation through
// exp.Runner's reference-counted singleflight, share one persistent
// RunCache, and all receive byte-identical RESULT frames; a CANCEL (or a
// dropped connection) detaches only that client, stopping the simulation
// via context cancellation exactly when the last interested client leaves.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"moca/internal/exp"
	"moca/internal/obs"
	"moca/internal/sim"
	"moca/internal/wire"
	"moca/internal/workload"
)

// Config tunes a Server. The zero value serves with the defaults below.
type Config struct {
	// MaxFrame bounds read and written frames (0 = wire.DefaultMaxFrame).
	MaxFrame uint32
	// ReadTimeout bounds the wait for each client frame; a connection with
	// no live jobs that stays silent past it is closed (0 = 5 minutes).
	// Connections with jobs in flight are exempt while they wait, and the
	// clock restarts when their last live job ends.
	ReadTimeout time.Duration
	// WriteTimeout bounds each frame write (0 = 30 seconds).
	WriteTimeout time.Duration
	// DrainTimeout bounds the graceful shutdown: after the serve context
	// fires, in-flight jobs get this long to finish before their
	// connections are closed (0 = 1 minute).
	DrainTimeout time.Duration
	// StreamInterval throttles PROGRESS/SNAPSHOT frames per subscription
	// (0 = 100ms). Simulation ticks arrive far faster than any client
	// needs; only the freshest tick inside each interval is forwarded.
	StreamInterval time.Duration
	// TraceIdleTimeout bounds how long a detached trace-streaming session
	// (its client disconnected mid-corpus) waits for a re-attach before the
	// half-run simulation is canceled and reaped (0 = 2 minutes).
	TraceIdleTimeout time.Duration
	// Measure and ProfileWindow are the quotas used when a SUBMIT leaves
	// them zero (0 = 300_000 each, the paper defaults).
	Measure       uint64
	ProfileWindow uint64
	// Cache, if non-nil, is the persistent result/profile cache shared by
	// every runner.
	Cache *exp.RunCache
	// Logf, if non-nil, receives server logs (connection lifecycle, drain).
	Logf func(format string, args ...any)
}

func (c Config) maxFrame() uint32 {
	if c.MaxFrame == 0 {
		return wire.DefaultMaxFrame
	}
	return c.MaxFrame
}

func (c Config) readTimeout() time.Duration {
	if c.ReadTimeout == 0 {
		return 5 * time.Minute
	}
	return c.ReadTimeout
}

func (c Config) writeTimeout() time.Duration {
	if c.WriteTimeout == 0 {
		return 30 * time.Second
	}
	return c.WriteTimeout
}

func (c Config) drainTimeout() time.Duration {
	if c.DrainTimeout == 0 {
		return time.Minute
	}
	return c.DrainTimeout
}

func (c Config) streamInterval() time.Duration {
	if c.StreamInterval == 0 {
		return 100 * time.Millisecond
	}
	return c.StreamInterval
}

func (c Config) measure() uint64 {
	if c.Measure == 0 {
		return 300_000
	}
	return c.Measure
}

func (c Config) profileWindow() uint64 {
	if c.ProfileWindow == 0 {
		return 300_000
	}
	return c.ProfileWindow
}

// Server accepts wire-protocol connections and runs their jobs.
type Server struct {
	cfg  Config
	hub  *hub
	docs docCache

	mu      sync.Mutex
	runners map[runnerKey]*exp.Runner
	conns   map[*conn]struct{}
	traces  map[string]*traceSession
	drain   bool

	// hardCtx outlives the serve context by the drain timeout; jobs run
	// under it so SIGTERM drains instead of killing them.
	hardCtx    context.Context
	hardCancel context.CancelFunc
}

// runnerKey identifies one runner configuration. Measure, ProfileWindow
// and Obs are runner-global in exp.Runner, so each distinct combination
// gets its own runner; all runners share the persistent cache, and the
// in-memory singleflight still collapses identical submissions because an
// identical run key implies an identical runnerKey.
type runnerKey struct {
	measure uint64
	window  uint64
	metrics bool
}

// New builds a Server.
func New(cfg Config) *Server {
	return &Server{
		cfg:     cfg,
		hub:     newHub(),
		runners: make(map[runnerKey]*exp.Runner),
		conns:   make(map[*conn]struct{}),
		traces:  make(map[string]*traceSession),
		docs:    docCache{docs: make(map[*sim.Result][]byte)},
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// runner returns (creating on first use) the runner for one quota/obs
// combination.
func (s *Server) runner(key runnerKey) *exp.Runner {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.runners[key]; ok {
		return r
	}
	r := exp.NewRunner()
	r.Measure = key.measure
	r.FW.ProfileWindow = key.window
	r.Obs = obs.Options{Metrics: key.metrics}
	r.Cache = s.cfg.Cache
	r.Ctx = s.hardCtx
	r.OnProgress = s.hub.tick
	s.runners[key] = r
	return r
}

// Serve accepts connections on ln until ctx fires, then drains: the
// listener closes immediately, in-flight jobs keep running under the
// drain window, and connections are force-closed when it expires. Serve
// returns once every connection handler has exited.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	//moca:allowctx the drain root must outlive the serve ctx: jobs finish inside the drain window after ctx fires
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.mu.Unlock()
	defer s.hardCancel()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	//moca:gorountracked exits when the serve ctx or stop fires; bounded by Serve's own lifetime
	go func() {
		select {
		case <-ctx.Done():
		case <-stop:
		}
		ln.Close()
	}()

	for {
		nc, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				break // graceful: the serve context fired
			}
			select {
			case <-stop:
			default:
				close(stop)
			}
			wg.Wait()
			return err
		}
		c := s.newConn(nc)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.serve()
		}()
	}

	// Drain: reject new submissions, give running jobs the drain window,
	// then cut the stragglers' connections.
	s.mu.Lock()
	s.drain = true
	n := len(s.conns)
	s.mu.Unlock()
	s.logf("draining: %d connection(s), up to %v", n, s.cfg.drainTimeout())

	done := make(chan struct{})
	//moca:gorountracked closes done once the handler WaitGroup drains; bounded by the connections it waits on
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.drainTimeout()):
		s.logf("drain timeout: closing remaining connections")
		s.hardCancel()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return nil
}

func (s *Server) newConn(nc net.Conn) *conn {
	c := &conn{
		srv:  s,
		nc:   nc,
		br:   bufio.NewReader(nc),
		jobs: make(map[uint32]*job),
	}
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	return c
}

func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drain
}

// hardContext returns the drain root jobs run under: canceled only when
// the drain window expires or Serve exits. Before Serve has run — tests
// drive connections without a listener — it falls back to the process
// root.
func (s *Server) hardContext() context.Context {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hardCtx != nil {
		return s.hardCtx
	}
	//moca:allowctx pre-Serve fallback for tests that drive connections directly
	return context.Background()
}

// docCache keeps the encoded sim.Result document of every result the
// server has delivered more than once, keyed by the *sim.Result the runner
// memo hands every request for that run. A result delivered once is
// encoded for that delivery and not kept, so one-off runs cost no
// document memory. Keying by pointer retains nothing new: the runners
// hold every memoized result for the server's lifetime.
type docCache struct {
	mu   sync.Mutex
	docs map[*sim.Result][]byte // nil value: delivered once, not kept
}

// encode returns res's JSON document, from the cache when it holds one.
func (d *docCache) encode(res *sim.Result) ([]byte, error) {
	d.mu.Lock()
	doc, seen := d.docs[res]
	if !seen {
		d.docs[res] = nil
	}
	d.mu.Unlock()
	if doc != nil {
		return doc, nil
	}
	doc, err := res.MarshalJSON()
	if err == nil && seen {
		d.mu.Lock()
		d.docs[res] = doc
		d.mu.Unlock()
	}
	return doc, err
}

// job is one client's interest in one run. At most one of the runner
// path (memoKey/cancel) or the trace-streaming path (sess) is live; a job
// answered from the runner memo has neither.
type job struct {
	id      uint32
	memoKey string
	cancel  context.CancelFunc
	sess    *traceSession

	mu    sync.Mutex
	state string // StateRunning until finish makes it terminal, then fixed
}

func (j *job) getState() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// conn handles one client connection: a read loop dispatching frames, and
// a write mutex serializing the job goroutines' and streamers' frames.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader // read loop only

	wmu sync.Mutex // serializes writes (jobs, streams, read-loop replies)

	mu   sync.Mutex
	jobs map[uint32]*job
	// live counts the jobs in StateRunning. Only the read loop adds to
	// it (when it registers a job); finish subtracts once per job.
	live atomic.Int32

	jwg sync.WaitGroup // job + streamer goroutines
}

// send writes one frame under the write deadline. Errors only poison this
// connection; the read loop notices on its next read.
func (c *conn) send(typ byte, v any) error {
	frame, err := wire.AppendMsg(nil, typ, v, c.srv.cfg.maxFrame())
	if err != nil {
		return err
	}
	return c.write(frame)
}

// write writes whole frames in one Write under the write deadline.
func (c *conn) write(frames []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.writeTimeout()))
	//moca:allowhold wmu exists to serialize frame writes; the write deadline bounds the hold
	_, err := c.nc.Write(frames)
	return err
}

func (c *conn) protoError(msg string) {
	_ = c.send(wire.TypeError, wire.ErrorMsg{Code: wire.CodeProto, Msg: msg})
}

// serve runs the connection to completion.
func (c *conn) serve() {
	defer func() {
		// Cancel every job interest this client still holds, then wait for
		// its goroutines before releasing the connection. Trace sessions
		// are the exception: they survive the disconnect (detached, on the
		// idle clock) so the client can reconnect and resume pushing from
		// its last acknowledged position.
		c.mu.Lock()
		for _, j := range c.jobs {
			switch {
			case j.sess != nil:
				j.sess.detach(c)
			case j.cancel != nil:
				j.cancel()
			}
		}
		c.mu.Unlock()
		c.jwg.Wait()
		c.nc.Close()
		c.srv.dropConn(c)
	}()

	if err := c.handshake(); err != nil {
		c.srv.logf("%s: handshake: %v", c.nc.RemoteAddr(), err)
		return
	}
	for {
		// The idle timeout applies only between jobs: a client quietly
		// waiting on a long simulation must not be cut off. Dead clients
		// with live jobs are detected by write failures instead. While
		// this loop waits for a frame the count can only fall, and finish
		// arms the clock when it reaches zero; the second load covers a
		// job that ends between the first load and clearing the deadline.
		if c.liveJobs() > 0 {
			c.nc.SetReadDeadline(time.Time{})
		}
		if c.liveJobs() == 0 {
			c.armIdle()
		}
		typ, payload, err := wire.ReadFrame(c.br, c.srv.cfg.maxFrame())
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.srv.logf("%s: read: %v", c.nc.RemoteAddr(), err)
				c.protoError(err.Error())
			}
			return
		}
		if err := c.dispatch(typ, payload); err != nil {
			c.srv.logf("%s: %v", c.nc.RemoteAddr(), err)
			c.protoError(err.Error())
			return
		}
	}
}

func (c *conn) armIdle() {
	c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.readTimeout()))
}

func (c *conn) handshake() error {
	c.armIdle()
	typ, payload, err := wire.ReadFrame(c.br, c.srv.cfg.maxFrame())
	if err != nil {
		return err
	}
	if typ != wire.TypeHello {
		c.protoError(fmt.Sprintf("first frame type 0x%02x, want HELLO", typ))
		return fmt.Errorf("first frame type 0x%02x", typ)
	}
	var h wire.Hello
	if err := wire.Decode(payload, &h); err != nil {
		c.protoError(err.Error())
		return err
	}
	if h.Version != wire.ProtocolVersion {
		c.protoError(fmt.Sprintf("protocol version %d, server speaks %d", h.Version, wire.ProtocolVersion))
		return fmt.Errorf("%w: client %d, server %d", wire.ErrVersion, h.Version, wire.ProtocolVersion)
	}
	return c.send(wire.TypeHelloOK, wire.HelloOK{Version: wire.ProtocolVersion})
}

// dispatch handles one post-handshake frame. A returned error is a
// protocol violation that closes the connection; job-level faults are
// reported as ERROR frames with the job's ID and keep the connection open.
func (c *conn) dispatch(typ byte, payload []byte) error {
	switch typ {
	case wire.TypeSubmit:
		var sub wire.Submit
		if err := wire.Decode(payload, &sub); err != nil {
			return err
		}
		return c.submit(sub)
	case wire.TypeStatus:
		var req wire.StatusReq
		if err := wire.Decode(payload, &req); err != nil {
			return err
		}
		j := c.lookup(req.ID)
		if j == nil {
			return c.send(wire.TypeError, wire.ErrorMsg{ID: req.ID, Code: wire.CodeBadReq, Msg: "unknown job"})
		}
		return c.send(wire.TypeJobState, wire.JobStatus{ID: req.ID, State: j.getState()})
	case wire.TypeCancel:
		var req wire.Cancel
		if err := wire.Decode(payload, &req); err != nil {
			return err
		}
		if j := c.lookup(req.ID); j != nil {
			// A job that already reached a terminal state keeps it, so
			// STATUS agrees with the terminal frame the client received.
			c.finish(j, wire.StateCanceled)
			switch {
			case j.sess != nil:
				// An explicit CANCEL abandons the session for good — unlike
				// a disconnect, which leaves it resumable.
				j.sess.terminate()
			case j.cancel != nil:
				j.cancel()
			}
		}
		return nil
	case wire.TypeStream:
		var req wire.StreamReq
		if err := wire.Decode(payload, &req); err != nil {
			return err
		}
		j := c.lookup(req.ID)
		if j == nil {
			return c.send(wire.TypeError, wire.ErrorMsg{ID: req.ID, Code: wire.CodeBadReq, Msg: "unknown job"})
		}
		c.stream(j)
		return nil
	case wire.TypeTraceStart:
		var start wire.TraceStart
		if err := wire.Decode(payload, &start); err != nil {
			return err
		}
		return c.handleTraceStart(start)
	case wire.TypeTraceBlock:
		return c.handleTraceBlock(payload)
	case wire.TypeTraceEnd:
		var end wire.TraceEnd
		if err := wire.Decode(payload, &end); err != nil {
			return err
		}
		return c.handleTraceEnd(end)
	case wire.TypeHello:
		return errors.New("duplicate HELLO")
	default:
		return fmt.Errorf("unexpected frame type 0x%02x", typ)
	}
}

func (c *conn) lookup(id uint32) *job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[id]
}

func (c *conn) liveJobs() int { return int(c.live.Load()) }

// register adds j to the connection, counting it live if it is running;
// the caller holds c.mu.
func (c *conn) register(j *job) {
	c.jobs[j.id] = j
	if j.state == wire.StateRunning {
		c.live.Add(1)
	}
}

// finish moves j from StateRunning to the terminal state st and returns
// st. If j is already terminal it stays as it is and finish returns that
// state: the first terminal state is final. The live count falls once
// per job, here, and the idle clock restarts when it reaches zero.
func (c *conn) finish(j *job, st string) string {
	j.mu.Lock()
	if j.state != wire.StateRunning {
		st = j.state
		j.mu.Unlock()
		return st
	}
	j.state = st
	j.mu.Unlock()
	if c.live.Add(-1) == 0 {
		c.armIdle()
	}
	return st
}

// deliver makes st j's terminal state and sends the matching frame: the
// RESULT frame for StateDone, otherwise an ERROR with code and msg. If
// a CANCEL made j terminal first, the client gets the canceled ERROR
// instead, so the frame always agrees with STATUS.
func (c *conn) deliver(j *job, st, code, msg string, result []byte) {
	if c.finish(j, st) != st {
		st, code, msg = wire.StateCanceled, wire.CodeCanceled, "job canceled"
	}
	if st == wire.StateDone {
		_ = c.write(result)
		return
	}
	_ = c.send(wire.TypeError, wire.ErrorMsg{ID: j.id, Code: code, Msg: msg})
}

// submit validates a SUBMIT, then answers it from the runner memo or
// starts its job goroutine.
func (c *conn) submit(sub wire.Submit) error {
	reject := func(code, msg string) error {
		return c.send(wire.TypeError, wire.ErrorMsg{ID: sub.ID, Code: code, Msg: msg})
	}
	if c.srv.draining() {
		return reject(wire.CodeDraining, "server is shutting down")
	}
	if (sub.App == "") == (sub.Mix == "") {
		return reject(wire.CodeBadReq, "exactly one of app or mix is required")
	}
	def, err := exp.SystemByName(sub.System)
	if err != nil {
		return reject(wire.CodeBadReq, err.Error())
	}
	key := "single/" + sub.App
	if sub.Mix != "" {
		key = "mix/" + sub.Mix
	}

	// Only this read loop adds jobs, so the ID stays free until it does.
	c.mu.Lock()
	_, dup := c.jobs[sub.ID]
	c.mu.Unlock()
	if dup {
		return reject(wire.CodeBadReq, "job id already in use")
	}

	measure, window := sub.Measure, sub.ProfileWindow
	if measure == 0 {
		measure = c.srv.cfg.measure()
	}
	if window == 0 {
		window = c.srv.cfg.profileWindow()
	}
	r := c.srv.runner(runnerKey{measure: measure, window: window, metrics: sub.Metrics})
	if res, ok := r.Memoized(def, key); ok {
		return c.answer(sub.ID, res)
	}

	// Jobs run under the drain root, not a detached context: when the
	// drain window expires the server cancels stragglers instead of
	// leaking them behind force-closed connections.
	jctx, cancel := context.WithCancel(c.srv.hardContext())
	j := &job{id: sub.ID, memoKey: exp.MemoKey(def, key), cancel: cancel, state: wire.StateRunning}
	c.mu.Lock()
	c.register(j)
	c.mu.Unlock()

	if err := c.send(wire.TypeAccepted, wire.Accepted{ID: sub.ID}); err != nil {
		cancel()
		return err
	}

	c.jwg.Add(1)
	go func() {
		defer c.jwg.Done()
		defer cancel()
		c.runJob(jctx, r, j, def, sub)
	}()
	return nil
}

// runJob executes one job via the runner singleflight and sends its
// terminal frame.
func (c *conn) runJob(ctx context.Context, r *exp.Runner, j *job, def exp.SystemDef, sub wire.Submit) {
	var (
		res *sim.Result
		err error
	)
	if sub.Mix != "" {
		mix, ok := workload.MixByName(sub.Mix)
		if !ok {
			c.deliver(j, wire.StateFailed, wire.CodeBadReq, fmt.Sprintf("unknown mix %q", sub.Mix), nil)
			return
		}
		res, err = r.RunMixCtx(ctx, def, mix)
	} else {
		res, err = r.RunSingleCtx(ctx, def, sub.App)
	}
	if err == nil {
		// sim.Result's encoding is deterministic (fixed field order,
		// sorted maps), so every client joined to the same *sim.Result
		// receives byte-identical frames without coordination.
		var doc, frame []byte
		if doc, err = c.srv.docs.encode(res); err == nil {
			if frame, err = wire.AppendResultFrame(nil, j.id, doc, c.srv.cfg.maxFrame()); err == nil {
				c.deliver(j, wire.StateDone, "", "", frame)
				return
			}
		}
	}
	if errors.Is(err, context.Canceled) {
		c.deliver(j, wire.StateCanceled, wire.CodeCanceled, err.Error(), nil)
		return
	}
	c.deliver(j, wire.StateFailed, wire.CodeFailed, err.Error(), nil)
}

// answer serves, on the read loop, a SUBMIT whose run the runner memo
// already holds. The job is registered terminal, so it is never live and
// needs no context or goroutine, and its ACCEPTED and terminal frames go
// out together in one write.
func (c *conn) answer(id uint32, res *sim.Result) error {
	limit := c.srv.cfg.maxFrame()
	doc, resErr := c.srv.docs.encode(res)
	// The frame headers, the two envelopes and the job ID fit in the slack.
	frames, err := wire.AppendMsg(make([]byte, 0, len(doc)+64), wire.TypeAccepted, wire.Accepted{ID: id}, limit)
	if err != nil {
		return err
	}
	if resErr == nil {
		frames, resErr = wire.AppendResultFrame(frames, id, doc, limit)
	}
	j := &job{id: id, state: wire.StateDone}
	if resErr != nil {
		j.state = wire.StateFailed
		if frames, err = wire.AppendMsg(frames, wire.TypeError, wire.ErrorMsg{ID: id, Code: wire.CodeFailed, Msg: resErr.Error()}, limit); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.register(j)
	c.mu.Unlock()
	return c.write(frames)
}

// stream subscribes the connection to the job's progress ticks until the
// job ends, forwarding at most one PROGRESS (and SNAPSHOT, when metrics
// were requested) per throttle interval. A job that is already terminal
// has nothing to stream: it gets no subscription and no goroutine.
func (c *conn) stream(j *job) {
	if j.getState() != wire.StateRunning {
		return
	}
	ticks, unsubscribe := c.srv.hub.subscribe(j.memoKey)
	c.jwg.Add(1)
	go func() {
		defer c.jwg.Done()
		defer unsubscribe()
		throttle := time.NewTicker(c.srv.cfg.streamInterval())
		defer throttle.Stop()
		var latest *tick
		for {
			select {
			case tk, ok := <-ticks:
				if !ok {
					return
				}
				latest = &tk
			case <-throttle.C:
				if j.getState() != wire.StateRunning {
					return
				}
				if latest == nil {
					continue
				}
				if err := c.send(wire.TypeProgress, wire.Progress{ID: j.id, Done: latest.done, Total: latest.total}); err != nil {
					return
				}
				if latest.obs != nil {
					if err := c.send(wire.TypeSnapshot, wire.Snapshot{ID: j.id, Obs: latest.obs}); err != nil {
						return
					}
				}
				latest = nil
			}
		}
	}()
}
