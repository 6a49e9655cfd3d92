package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"moca/internal/exp"
	"moca/internal/sim"
	"moca/internal/wire"
	"moca/internal/wire/client"
	"moca/internal/wire/server"
	"moca/internal/workload"
)

// served: an in-process moca-served on loopback. Set-up warms the hot
// keys through the server and checks each against a local run. Each timed
// round, two clients each open one connection and send servedRequests
// requests back to back; every 100th is a never-seen key. Rounds repeat
// until the deadline. The count per connection is fixed, not the round's
// duration, because the server's per-connection job bookkeeping grows
// with the requests that connection has sent.
type served struct {
	*env
	rep    int
	cache  *exp.RunCache
	ln     *frameListener
	cancel context.CancelFunc
	done   chan error
	local  *localRunner
	hotRaw [][]byte
	hotRes []*sim.Result
	misses atomic.Int64
	rounds int
}

// hotKeys span every system kind, singles and mixes; together they use
// all ten applications, so each miss finds its profile already cached.
var hotKeys = []wire.Submit{
	{System: "ddr3", App: "mcf"}, {System: "rl", App: "milc"}, {System: "hbm", App: "lbm"},
	{System: "lp", App: "gcc"}, {System: "heter-app", App: "mcf"}, {System: "moca", App: "mcf"},
	{System: "moca", App: "lbm"}, {System: "heter-app", App: "libquantum"}, {System: "moca", App: "disparity"},
	{System: "ddr3", App: "sift"}, {System: "hbm", App: "mser"}, {System: "moca", Mix: "2L1B1N"},
	{System: "heter-app", Mix: "2L1B1N"}, {System: "ddr3", Mix: "4N"}, {System: "lp", App: "tracking"},
	{System: "rl", App: "stitch"},
}

// missSystems are homogeneous, so a miss simulates without profiling.
var missSystems = []string{"ddr3", "rl", "hbm", "lp"}

// servedClients is the load: one goroutine and one connection each,
// matching the host's two CPUs.
const servedClients = 2

// missEvery makes every missEvery-th request of a connection a miss.
const missEvery = 100

// rssRounds is the round after which peak_rss_mb is read. The server keeps
// a runner per distinct measure, so its memory grows with every miss; a
// fixed request count keeps the metric from tracking throughput.
const rssRounds = 2

func (s *served) setup(ctx context.Context, tr *tracer) error {
	dir := filepath.Join(s.work, fmt.Sprintf("served-%d", s.rep))
	var err error
	if s.cache, err = exp.OpenRunCache(filepath.Join(dir, "server"), exp.CacheReadWrite); err != nil {
		return err
	}
	local, err := exp.OpenRunCache(filepath.Join(dir, "local"), exp.CacheReadWrite)
	if err != nil {
		return err
	}
	s.local = &localRunner{cache: local, window: s.scale.servedWindow}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.ln = &frameListener{Listener: ln}
	srv := server.New(server.Config{Cache: s.cache, Measure: s.scale.servedMeasure, ProfileWindow: s.scale.servedWindow})
	var sctx context.Context
	sctx, s.cancel = context.WithCancel(ctx)
	s.done = make(chan error, 1)
	go func() { s.done <- srv.Serve(sctx, s.ln) }()

	cl, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		return err
	}
	defer cl.Close()
	for _, k := range hotKeys {
		t0 := time.Now()
		_, job, err := cl.Run(ctx, k, nil)
		tr.record(tr.newID(), 0, "served.warm", keyName(k), t0, time.Now())
		if err != nil {
			return fmt.Errorf("warming %s: %w", keyName(k), err)
		}
		s.hotRaw = append(s.hotRaw, job.Raw)
	}
	for i, k := range hotKeys {
		res, want, err := s.local.run(ctx, k, s.scale.servedMeasure)
		if err != nil {
			return err
		}
		if !bytes.Equal(s.hotRaw[i], want) {
			return fmt.Errorf("hot key %s: server result differs from a local run", keyName(k))
		}
		s.hotRes = append(s.hotRes, res)
	}
	return nil
}

func keyName(k wire.Submit) string {
	name := k.App
	if k.Mix != "" {
		name = "mix/" + k.Mix
	}
	if k.Measure != 0 {
		return fmt.Sprintf("%s|%s@%d", k.System, name, k.Measure)
	}
	return k.System + "|" + name
}

// missKey returns the i-th never-seen key. Keys cycle through the
// applications in a seeded order and then through the systems, so every
// seed draws the same mix of costs; the measure makes each key unique.
func (s *served) missKey(i int, perm []int) wire.Submit {
	apps := workload.Names()
	return wire.Submit{
		System:  missSystems[(i/len(apps))%len(missSystems)],
		App:     apps[perm[i%len(apps)]],
		Measure: s.scale.servedMeasure + 1 + uint64(i),
	}
}

// clientLoad is what one client of one round saw.
type clientLoad struct {
	hit, miss        []float64 // latency, ms
	submitUs, waitUs []float64 // hits only
	failed           int
	missKeys         []wire.Submit
	missSums         [][sha256.Size]byte // of each miss's Job.Raw
}

func (s *served) measure(ctx context.Context, until time.Time, tr *tracer) (*phase, error) {
	s.ln.tr.Store(tr)
	defer s.ln.tr.Store(nil)
	bytes0, cache0 := s.ln.bytes.Load(), s.cache.Stats()
	perm := rand.New(rand.NewPCG(s.seed, 0x5e7)).Perm(len(workload.Names()))

	p := newPhase(tr)
	var loads []*clientLoad
	for round := 0; round < rssRounds || time.Now().Before(until); round++ {
		var speed0, speed1 float64
		p.offClock(ctx, func() { speed0 = s.kern.measure() })
		start := time.Now()
		var wg sync.WaitGroup
		out := make([]*clientLoad, servedClients)
		for k := range out {
			cl, err := client.Dial(s.ln.Addr().String(), client.Options{})
			if err != nil {
				wg.Wait()
				return nil, err
			}
			// Dial returns after the server's handshake reply, so the
			// listener has counted this connection.
			conn := s.ln.accept.Load() - 1
			rng := rand.New(rand.NewPCG(s.seed, uint64(s.rounds*servedClients+k)))
			corrupt := s.corrupt
			s.corrupt = false
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				defer cl.Close()
				out[k] = s.drive(ctx, cl, rng, perm, tr, conn, corrupt)
			}(k)
		}
		wg.Wait()
		d := time.Since(start)
		p.offClock(ctx, func() { speed1 = s.kern.measure() })
		speed := (speed0 + speed1) / 2
		p.wall += d
		p.refSecs += d.Seconds() * speed
		for _, l := range out {
			for _, x := range l.hit {
				p.add(x, speed)
			}
			for _, x := range l.miss {
				p.add(x, speed)
			}
		}
		loads = append(loads, out...)
		s.rounds++
		if round == rssRounds-1 {
			var err error
			if p.rss, err = peakRSS(); err != nil {
				return nil, err
			}
		}
	}

	var hit, miss, submitUs, waitUs []float64
	var keys []wire.Submit
	var sums [][sha256.Size]byte
	for _, l := range loads {
		hit = append(hit, l.hit...)
		miss = append(miss, l.miss...)
		submitUs = append(submitUs, l.submitUs...)
		waitUs = append(waitUs, l.waitUs...)
		p.failed += l.failed
		keys = append(keys, l.missKeys...)
		sums = append(sums, l.missSums...)
	}
	p.attempted = len(p.lat)
	p.offClock(ctx, func() { p.failed += s.verifyMisses(ctx, keys, sums) })
	p.detail = map[string]float64{
		"hit_ms_p50":  percentile(hit, 50),
		"hit_ms_p99":  percentile(hit, 99),
		"miss_ms_p50": percentile(miss, 50),
		"miss_ms_p95": percentile(miss, 95),
	}
	if tr != nil {
		var service []float64
		for _, d := range tr.durations("server.service") {
			service = append(service, float64(d)/float64(time.Microsecond))
		}
		cache1 := s.cache.Stats()
		p.layers["wire.submit_us_p50"] = percentile(submitUs, 50)
		p.layers["wire.wait_us_p50"] = percentile(waitUs, 50)
		p.layers["wire.bytes_per_req"] = ratio(float64(s.ln.bytes.Load()-bytes0), float64(p.attempted))
		p.layers["server.service_us_p50"] = percentile(service, 50)
		p.layers["exp.cache_hits"] = float64(cache1.Hits - cache0.Hits)
		p.layers["exp.cache_misses"] = float64(cache1.Misses - cache0.Misses)
		p.layers["exp.cache_writes"] = float64(cache1.Writes - cache0.Writes)
	}
	return p, nil
}

// drive sends one connection's requests back to back. Hits are checked
// against the set-up references as they arrive; misses are kept for
// verifyMisses.
func (s *served) drive(ctx context.Context, cl *client.Client, rng *rand.Rand, perm []int, tr *tracer, conn int64, corrupt bool) *clientLoad {
	l := &clientLoad{}
	for i := 0; i < s.scale.servedRequests; i++ {
		hot := -1
		var sub wire.Submit
		if (i+1)%missEvery == 0 {
			sub = s.missKey(int(s.misses.Add(1)-1), perm)
		} else {
			hot = rng.IntN(len(hotKeys))
			sub = hotKeys[hot]
		}
		op := fmt.Sprintf("%d.%d", conn, i)
		id := tr.newID()
		t0 := time.Now()
		job, err := cl.Submit(sub)
		t1 := time.Now()
		if err == nil {
			_, err = cl.Wait(ctx, job, nil, nil)
		}
		t2 := time.Now()
		tr.record(tr.newID(), id, "wire.Client.Submit", op, t0, t1)
		tr.record(tr.newID(), id, "wire.Client.Wait", op, t1, t2)
		tr.record(id, 0, "request", op, t0, t2)
		if err != nil {
			l.failed++
			fmt.Fprintf(s.log, "bench: request %s (%s): %v\n", op, keyName(sub), err)
			if hot >= 0 {
				l.hit = append(l.hit, ms(t2.Sub(t0)))
			} else {
				l.miss = append(l.miss, ms(t2.Sub(t0)))
			}
			continue
		}
		raw := job.Raw
		if corrupt {
			raw, corrupt = flipByte(raw), false
		}
		if hot < 0 {
			l.miss = append(l.miss, ms(t2.Sub(t0)))
			l.missKeys = append(l.missKeys, sub)
			l.missSums = append(l.missSums, sha256.Sum256(raw))
			continue
		}
		l.hit = append(l.hit, ms(t2.Sub(t0)))
		l.submitUs = append(l.submitUs, float64(t1.Sub(t0))/float64(time.Microsecond))
		l.waitUs = append(l.waitUs, float64(t2.Sub(t1))/float64(time.Microsecond))
		if !bytes.Equal(raw, s.hotRaw[hot]) {
			l.failed++
			fmt.Fprintf(s.log, "bench: request %s (%s): result differs from the reference\n", op, keyName(sub))
		}
	}
	return l
}

// verifyMisses reruns every miss key on a local runner, two at a time,
// and returns how many server results differ. Misses are kept as digests
// so that the benchmark's own memory does not grow with the requests sent.
func (s *served) verifyMisses(ctx context.Context, keys []wire.Submit, sums [][sha256.Size]byte) int {
	var failed atomic.Int64
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < servedClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				_, want, err := s.local.run(ctx, keys[i], keys[i].Measure)
				if err != nil || sha256.Sum256(want) != sums[i] {
					failed.Add(1)
					fmt.Fprintf(s.log, "bench: miss %s: result differs from a local run (%v)\n", keyName(keys[i]), err)
				}
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	return int(failed.Load())
}

func (s *served) digest() []byte                  { return bytes.Join(s.hotRaw, nil) }
func (s *served) setupLayers() map[string]float64 { return nil }
func (s *served) model() []*sim.Result            { return s.hotRes }
func (s *served) counts() map[string]uint64 {
	return map[string]uint64{
		"clients":           servedClients,
		"requests_per_conn": uint64(s.scale.servedRequests),
		"rounds":            uint64(s.rounds),
		"miss_every":        missEvery,
		"hot_keys":          uint64(len(hotKeys)),
		"measure":           s.scale.servedMeasure,
		"profile_window":    s.scale.servedWindow,
	}
}

func (s *served) close() {
	if s.cancel != nil {
		s.cancel()
		<-s.done
	}
}

// localRunner computes reference results the way moca-sim does without a
// server: a fresh exp.Runner per key, so no result stays in memory, sharing
// a cache of its own so each application is profiled once.
type localRunner struct {
	cache  *exp.RunCache
	window uint64
}

func (l *localRunner) run(ctx context.Context, k wire.Submit, measure uint64) (*sim.Result, []byte, error) {
	def, err := exp.SystemByName(k.System)
	if err != nil {
		return nil, nil, err
	}
	r := exp.NewRunner()
	r.Measure = measure
	r.FW.ProfileWindow = l.window
	r.Cache = l.cache
	var res *sim.Result
	if k.Mix != "" {
		mix, ok := workload.MixByName(k.Mix)
		if !ok {
			return nil, nil, fmt.Errorf("unknown mix %q", k.Mix)
		}
		res, err = r.RunMixCtx(ctx, def, mix)
	} else {
		res, err = r.RunSingleCtx(ctx, def, k.App)
	}
	if err != nil {
		return nil, nil, err
	}
	data, err := res.MarshalJSON()
	return res, data, err
}
