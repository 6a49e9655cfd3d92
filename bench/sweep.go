package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"moca/internal/exp"
	"moca/internal/obs"
	"moca/internal/sim"
)

// sweep: the paper's headline sweep. Set-up runs it cold on an empty run
// cache; each timed op is a warm pass by a fresh Runner reading that cache.
// The suite is fixed, so the seed is recorded but not used.
type sweep struct {
	*env
	rep        int
	dir        string
	table      string
	ref        []byte
	results    []*sim.Result
	cold       exp.RunnerStats
	cache      exp.CacheStats
	busyFrac   float64
	passesSeen int
}

func (s *sweep) runner(cache *exp.RunCache) *exp.Runner {
	r := exp.NewRunner()
	r.Measure = s.scale.sweepWindow
	r.FW.ProfileWindow = s.scale.sweepWindow
	r.Parallelism = runtime.NumCPU()
	r.Cache = cache
	return r
}

func (s *sweep) setup(ctx context.Context, tr *tracer) error {
	s.dir = fmt.Sprintf("%s/runcache-%d", s.work, s.rep)
	cache, err := exp.OpenRunCache(s.dir, exp.CacheReadWrite)
	if err != nil {
		return err
	}
	r := s.runner(cache)
	r.Ctx = ctx
	busy := newBusyClock(tr)
	if tr != nil {
		r.OnProgress = busy.tick
	}
	t0 := time.Now()
	_, table, err := r.Headline()
	t1 := time.Now()
	tr.record(tr.newID(), 0, "exp.Runner.Headline", "cold", t0, t1)
	if err != nil {
		return err
	}
	busy.flush()
	s.busyFrac = ratio(busy.total.Seconds(), t1.Sub(t0).Seconds()*float64(r.Parallelism))
	s.table = table.String()
	s.cold, s.cache = r.Stats(), cache.Stats()
	s.results = sortedResults(r)
	s.ref, err = encodeSweep(s.table, s.results)
	return err
}

func (s *sweep) measure(ctx context.Context, until time.Time, tr *tracer) (*phase, error) {
	var stats exp.RunnerStats
	var cstats exp.CacheStats
	var passes int
	p := s.loop(ctx, until, tr, s.ref, func(ctx context.Context, tr *tracer, parent int64) (func() ([]byte, error), error) {
		cache, err := exp.OpenRunCache(s.dir, exp.CacheRead)
		if err != nil {
			return nil, err
		}
		r := s.runner(cache)
		r.Ctx = ctx
		t0 := time.Now()
		_, table, err := r.Headline()
		tr.record(tr.newID(), parent, "exp.Runner.Headline", "warm", t0, time.Now())
		if err != nil {
			return nil, err
		}
		st := r.Stats()
		stats = st
		cstats = cache.Stats()
		passes++
		return func() ([]byte, error) {
			if st.Simulated != 0 || st.Profiled != 0 {
				return nil, fmt.Errorf("warm pass simulated %d runs and profiled %d apps", st.Simulated, st.Profiled)
			}
			return encodeSweep(table.String(), sortedResults(r))
		}, nil
	})
	s.passesSeen = passes
	if tr != nil {
		p.layers["exp.disk_hits"] = float64(stats.DiskHits)
		p.layers["exp.memory_hits"] = float64(stats.MemoryHits)
		p.layers["exp.cache_hits"] = float64(cstats.Hits)
		p.layers["exp.disk_hit_us"] = ratio(percentile(p.lat, 50)*1000, float64(stats.DiskHits))
	}
	return p, nil
}

// sortedResults returns the runner's results in key order.
func sortedResults(r *exp.Runner) []*sim.Result {
	m := r.Results()
	out := make([]*sim.Result, 0, len(m))
	for _, k := range sortedKeys(m) {
		out = append(out, m[k])
	}
	return out
}

// encodeSweep concatenates the rendered headline table and every result's
// encoding: what a warm pass must reproduce exactly.
func encodeSweep(table string, results []*sim.Result) ([]byte, error) {
	out := []byte(table)
	for _, res := range results {
		data, err := res.MarshalJSON()
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
	}
	return out, nil
}

func (s *sweep) digest() []byte { return s.ref }
func (s *sweep) setupLayers() map[string]float64 {
	return map[string]float64{
		"exp.simulated":     float64(s.cold.Simulated),
		"exp.profiled":      float64(s.cold.Profiled),
		"exp.cache_misses":  float64(s.cache.Misses),
		"exp.cache_writes":  float64(s.cache.Writes),
		"exp.sim_busy_frac": s.busyFrac,
	}
}
func (s *sweep) model() []*sim.Result { return s.results }
func (s *sweep) counts() map[string]uint64 {
	return map[string]uint64{
		"measure":        s.scale.sweepWindow,
		"profile_window": s.scale.sweepWindow,
		"parallelism":    uint64(runtime.NumCPU()),
		"runs":           uint64(len(s.results)),
		"warm_passes":    uint64(s.passesSeen),
	}
}
func (s *sweep) close() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// busyClock turns Runner.OnProgress ticks into per-run busy intervals:
// from a run's first tick to its last. Ticks arrive from the runner's
// worker goroutines.
type busyClock struct {
	tr    *tracer
	mu    sync.Mutex
	first map[string]time.Time
	last  map[string]time.Time
	total time.Duration
}

func newBusyClock(tr *tracer) *busyClock {
	return &busyClock{tr: tr, first: map[string]time.Time{}, last: map[string]time.Time{}}
}

func (b *busyClock) tick(key string, _, _ uint64, _ func() *obs.Snapshot) {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.first[key]; !ok {
		b.first[key] = now
	}
	b.last[key] = now
}

// flush records one exp.run span per run and sums the intervals.
func (b *busyClock) flush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, key := range sortedKeys(b.first) {
		start, end := b.first[key], b.last[key]
		b.total += end.Sub(start)
		b.tr.record(b.tr.newID(), 0, "exp.run", key, start, end)
	}
}
