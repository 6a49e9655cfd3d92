package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"moca/internal/classify"
	"moca/internal/mem"
	"moca/internal/obs"
	"moca/internal/sim"
	"moca/internal/workload"
)

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
		if key != want {
			return fmt.Errorf("%s on %v: Runner key differs from the reference; %s", MemoKey(rn.def, ""), rn.apps, keyDiff(key, want))
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

// TestResultCacheKeyCrossPath: moca-sim keys a run with ResultCacheKey
// over the config and process specs it builds itself, the Runner with its
// spliced fragments. An entry stored by either is a hit for the other.
func TestResultCacheKeyCrossPath(t *testing.T) {
	def, err := SystemByName("moca")
	if err != nil {
		t.Fatal(err)
	}
	newRunner := func(dir string) *Runner {
		r := NewRunner()
		r.Measure = 20_000
		r.FW.ProfileWindow = 100_000
		r.Cache = openCache(t, dir, CacheReadWrite)
		return r
	}
	// simKey is moca-sim's key for the run: its own instrumentation,
	// config and process specs.
	simKey := func(r *Runner) string {
		t.Helper()
		ins, err := r.FW.Instrument(workload.MCF())
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultConfig(def.Name, def.Modules, def.Policy)
		key, err := ResultCacheKey(cfg, []sim.ProcSpec{ins.Proc(cfg.Policy, workload.Ref)}, r.Measure, r.FW.ProfileWindow)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}

	t.Run("moca-sim stores, Runner hits", func(t *testing.T) {
		r := newRunner(t.TempDir())
		_, _, payload := v1Entry(t, "v1-result.json")
		stored := new(sim.Result)
		if err := stored.UnmarshalJSON(payload); err != nil {
			t.Fatal(err)
		}
		stored.Name = def.Name
		if err := r.Cache.StoreResult(simKey(r), stored); err != nil {
			t.Fatal(err)
		}
		swapNewSystem(t, func(cfg sim.Config, procs []sim.ProcSpec) (*sim.System, error) {
			t.Error("Runner simulated a run moca-sim had stored")
			return sim.New(cfg, procs)
		})
		got, err := r.RunSingle(def, "mcf")
		if err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); st.DiskHits != 1 || st.Simulated != 0 {
			t.Fatalf("DiskHits=%d Simulated=%d, want 1/0", st.DiskHits, st.Simulated)
		}
		gotJSON, _ := got.MarshalJSON()
		wantJSON, _ := stored.MarshalJSON()
		if string(gotJSON) != string(wantJSON) {
			t.Error("Runner served a different result than moca-sim stored")
		}
	})

	t.Run("Runner stores, moca-sim hits", func(t *testing.T) {
		dir := t.TempDir()
		r := newRunner(dir)
		want, err := r.RunSingle(def, "mcf")
		if err != nil {
			t.Fatal(err)
		}
		c := openCache(t, dir, CacheRead)
		got, ok := c.LoadResult(simKey(r))
		if !ok {
			entries, _ := os.ReadDir(dir)
			t.Fatalf("moca-sim's key missed the Runner's entry (%d files in the cache)", len(entries))
		}
		gotJSON, _ := got.MarshalJSON()
		wantJSON, _ := want.MarshalJSON()
		if string(gotJSON) != string(wantJSON) {
			t.Error("moca-sim loaded a different result than the Runner stored")
		}
	})
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
