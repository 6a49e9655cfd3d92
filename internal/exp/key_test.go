package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"moca/internal/classify"
	"moca/internal/mem"
	"moca/internal/obs"
	"moca/internal/sim"
	"moca/internal/workload"
)

// ResultCacheKey encodes a run's result key whole, from fresh configKey
// and procKey fragments: the splice a Runner's cached fragments must
// reproduce.
func ResultCacheKey(cfg sim.Config, procs []sim.ProcSpec, measure, profileWindow uint64) (string, error) {
	cfgKey, err := configKey(cfg)
	if err != nil {
		return "", err
	}
	procKeys := make([][]byte, len(procs))
	for i, p := range procs {
		if procKeys[i], err = procKey(p); err != nil {
			return "", err
		}
	}
	return string(appendResultKey(nil, cfgKey, procKeys, measure, profileWindow, cfg.Obs.Metrics)), nil
}

// referenceResultKey is the result key as one json.Marshal of resultKey
// writes it: the bytes appendResultKey's splice must reproduce.
func referenceResultKey(cfg sim.Config, procs []sim.ProcSpec, measure, profileWindow uint64) (string, error) {
	kc := cfg
	kc.Name = ""
	kc.Obs = obs.Options{}
	kps := make([]sim.ProcSpec, len(procs))
	for i, p := range procs {
		p.Stream = nil
		kps[i] = p
	}
	data, err := json.Marshal(resultKey{
		Kind:    "result",
		Cfg:     kc,
		Procs:   kps,
		Measure: measure,
		Window:  profileWindow,
		Metrics: cfg.Obs.Metrics,
	})
	return string(data), err
}

// keyDiff shows where two keys first differ.
func keyDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-60, 0)
	return fmt.Sprintf("first difference at byte %d of %d/%d:\n got …%.120s\nwant …%.120s", i, len(got), len(want), got[lo:], want[lo:])
}

// TestRunnerKeysMatchReference: the Runner splices each run's cache key
// from fragments it encodes once per system and per app. For every run of
// Headline(), of the Fig. 14/15 capacity sweep and of chain-override
// systems, with metrics off and on, with fragments encoded by concurrent
// runs and reused, the key must be byte-equal to json.Marshal of
// resultKey over the config and process specs the run simulates, and to
// ResultCacheKey's.
func TestRunnerKeysMatchReference(t *testing.T) {
	type run struct {
		def  SystemDef
		apps []string
	}
	var runs []run
	for _, def := range StandardSystems() { // Headline: Figs. 8-13
		for _, app := range workload.Names() {
			runs = append(runs, run{def, []string{app}})
		}
		for _, m := range workload.Mixes() {
			runs = append(runs, run{def, m.Apps})
		}
	}
	for _, name := range []string{"moca@config2", "moca@config3", "heter-app@config2", "heter-app@config3"} {
		def, err := SystemByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range workload.ConfigSweepMixes() {
			runs = append(runs, run{def, m.Apps})
		}
	}
	// The chain variants share name, modules and policy. A nil map means
	// the paper's chains and an empty one none at all; a nil and an empty
	// chain simulate alike but encode as null and []. No two may share a
	// config fragment.
	naive := SystemDef{Name: "MOCA/chains", Modules: sim.Heterogeneous(sim.Config1), Policy: sim.PolicyMOCA,
		Chains: map[classify.Class][]mem.Kind{
			classify.LatencySensitive:   {mem.RLDRAM, mem.HBM, mem.LPDDR2, mem.DDR3},
			classify.BandwidthSensitive: {mem.HBM, mem.RLDRAM, mem.LPDDR2, mem.DDR3},
			classify.NonIntensive:       {mem.LPDDR2, mem.RLDRAM, mem.HBM, mem.DDR3},
		}}
	paper, none, nilChain, emptyChain := naive, naive, naive, naive
	paper.Chains = nil
	none.Chains = map[classify.Class][]mem.Kind{}
	nilChain.Chains = map[classify.Class][]mem.Kind{classify.LatencySensitive: nil}
	emptyChain.Chains = map[classify.Class][]mem.Kind{classify.LatencySensitive: {}}
	variants := []SystemDef{naive, paper, none, nilChain, emptyChain}
	for i, def := range variants {
		runs = append(runs, run{def, []string{"mcf"}}, run{def, workload.Mixes()[0].Apps})
		for _, other := range variants[i+1:] {
			if MemoKey(def, "") == MemoKey(other, "") {
				t.Errorf("chain variants share the memo key %q", MemoKey(def, ""))
			}
		}
	}

	r := NewRunner()
	r.Measure = 100_000
	r.FW.ProfileWindow = 50_000
	r.Cache = openCache(t, t.TempDir(), CacheRead)
	check := func(rn run) error {
		cfg, procs, key, err := r.prepare(context.Background(), rn.def, rn.apps)
		if err != nil {
			return err
		}
		want, err := referenceResultKey(cfg, procs, r.Measure, r.FW.ProfileWindow)
		if err != nil {
			return err
		}
		if string(key) != want {
			return fmt.Errorf("%s on %v: Runner key differs from the reference; %s", MemoKey(rn.def, ""), rn.apps, keyDiff(string(key), want))
		}
		if k, err := ResultCacheKey(cfg, procs, r.Measure, r.FW.ProfileWindow); err != nil || k != want {
			return fmt.Errorf("%s on %v: ResultCacheKey differs from the reference (err %v); %s", MemoKey(rn.def, ""), rn.apps, err, keyDiff(k, want))
		}
		return nil
	}

	// The first pass encodes the fragments from concurrent runs, as a
	// parallel sweep does; the next two reuse them.
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, rn := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = check(rn)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("concurrent pass, metrics off: %v", err)
		}
	}
	for _, metrics := range []bool{true, false} {
		r.Obs = obs.Options{Metrics: metrics}
		for _, rn := range runs {
			if err := check(rn); err != nil {
				t.Fatalf("warm pass, metrics %v: %v", metrics, err)
			}
		}
	}
}

// TestUseProfile: a profile installed with UseProfile stands in for the
// runner's own profiling run. Nothing is profiled, the simulated result
// is byte-identical to a self-profiling runner's, and the run hits the
// RunCache entry that runner stored. An unknown app is refused.
func TestUseProfile(t *testing.T) {
	def, err := SystemByName("moca")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	newRunner := func(cache *RunCache) *Runner {
		r := NewRunner()
		r.Measure = 20_000
		r.FW.ProfileWindow = 100_000
		r.Cache = cache
		return r
	}
	self := newRunner(openCache(t, dir, CacheReadWrite))
	want, err := self.RunSingle(def, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	if st := self.Stats(); st.Profiled != 1 || st.Simulated != 1 {
		t.Fatalf("self-profiling runner: Profiled=%d Simulated=%d, want 1/1", st.Profiled, st.Simulated)
	}
	wantJSON, _ := want.MarshalJSON()
	pr, err := self.FW.Profile(workload.MCF())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("simulated", func(t *testing.T) {
		r := newRunner(nil)
		if err := r.UseProfile("mcf", pr); err != nil {
			t.Fatal(err)
		}
		got, err := r.RunSingle(def, "mcf")
		if err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); st.Profiled != 0 || st.Simulated != 1 {
			t.Errorf("Profiled=%d Simulated=%d, want 0/1", st.Profiled, st.Simulated)
		}
		if gotJSON, _ := got.MarshalJSON(); string(gotJSON) != string(wantJSON) {
			t.Error("a run from the installed profile differs from the self-profiled run")
		}
	})

	t.Run("cache hit", func(t *testing.T) {
		r := newRunner(openCache(t, dir, CacheRead))
		if err := r.UseProfile("mcf", pr); err != nil {
			t.Fatal(err)
		}
		swapNewSystem(t, func(cfg sim.Config, procs []sim.ProcSpec) (*sim.System, error) {
			t.Error("simulated a run the self-profiling runner had stored")
			return sim.New(cfg, procs)
		})
		got, err := r.RunSingle(def, "mcf")
		if err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); st.Profiled != 0 || st.ProfileDiskHits != 0 || st.DiskHits != 1 {
			t.Errorf("Profiled=%d ProfileDiskHits=%d DiskHits=%d, want 0/0/1", st.Profiled, st.ProfileDiskHits, st.DiskHits)
		}
		if gotJSON, _ := got.MarshalJSON(); string(gotJSON) != string(wantJSON) {
			t.Error("the cache served a different result than the self-profiling runner stored")
		}
	})

	if err := newRunner(nil).UseProfile("bogus", pr); err == nil {
		t.Error("UseProfile accepted an unknown app")
	}
}

// BenchmarkResultCacheKey: one 4-core MOCA run's key, encoded whole by
// ResultCacheKey versus spliced by a Runner whose fragments are warm.
func BenchmarkResultCacheKey(b *testing.B) {
	r := NewRunner()
	r.Measure = 100_000
	r.FW.ProfileWindow = 100_000
	c, err := OpenRunCache(b.TempDir(), CacheRead)
	if err != nil {
		b.Fatal(err)
	}
	r.Cache = c
	def := StandardSystems()[5] // MOCA
	apps := workload.Mixes()[0].Apps
	cfg, procs, want, err := r.prepare(context.Background(), def, apps)
	if err != nil {
		b.Fatal(err)
	}
	ins := make([]*appInstr, len(apps))
	for i, app := range apps {
		if ins[i], err = r.instrumentCtx(context.Background(), app); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("ResultCacheKey", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if k, err := ResultCacheKey(cfg, procs, r.Measure, r.FW.ProfileWindow); err != nil || len(k) != len(want) {
				b.Fatalf("key of %d bytes (err %v), want %d", len(k), err, len(want))
			}
		}
	})
	b.Run("Runner", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if k, err := r.resultCacheKey(def, cfg, procs, ins); err != nil || len(k) != len(want) {
				b.Fatalf("key of %d bytes (err %v), want %d", len(k), err, len(want))
			}
		}
	})
}
