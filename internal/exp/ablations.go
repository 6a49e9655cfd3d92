package exp

import (
	"fmt"

	"moca/internal/cache"
	"moca/internal/classify"
	"moca/internal/core"
	"moca/internal/heap"
	"moca/internal/mem"
	"moca/internal/sim"
	"moca/internal/stats"
	"moca/internal/workload"
)

// Ablations for the design choices DESIGN.md calls out. None of these has
// a numbered figure in the paper; the threshold sweep implements the
// Section IV-C calibration procedure, the others probe choices the paper
// fixes by fiat.

// AblationThresholds reproduces the Section IV-C empirical threshold
// setup: sweep (Thr_Lat, Thr_BW) candidates, score each by the memory EDP
// of MOCA on the given mix, and report the best.
func (r *Runner) AblationThresholds(mixName string, latCands, bwCands []float64) (classify.Thresholds, *stats.Table, error) {
	mix, ok := workload.MixByName(mixName)
	if !ok {
		return classify.Thresholds{}, nil, fmt.Errorf("exp: unknown mix %q", mixName)
	}
	// Profile each app once; re-threshold per candidate without
	// re-simulating the profiling stage.
	profiles := map[string]core.Instrumentation{}
	for _, app := range mix.Apps {
		ins, err := r.Instrument(app)
		if err != nil {
			return classify.Thresholds{}, nil, err
		}
		profiles[app] = ins
	}

	var sweepErr error
	score := func(th classify.Thresholds) float64 {
		fw := core.NewFramework()
		fw.ObjectThresholds = th
		var procs []sim.ProcSpec
		for _, app := range mix.Apps {
			ins := fw.InstrumentFromProfile(profiles[app].App, profiles[app].Profile)
			procs = append(procs, ins.Proc(sim.PolicyMOCA, workload.Ref))
		}
		cfg := sim.DefaultConfig("moca-threshold-sweep", sim.Heterogeneous(sim.Config1), sim.PolicyMOCA)
		res, err := r.measure(r.context(), cfg, procs, "")
		if err != nil {
			sweepErr = err
			return 0
		}
		return res.MemEDP()
	}
	best, sweep := classify.Calibrate(latCands, bwCands, score)
	if sweepErr != nil {
		return classify.Thresholds{}, nil, sweepErr
	}

	t := stats.NewTable(fmt.Sprintf("Ablation: threshold sweep on %s (score = MOCA memory EDP)", mixName),
		"Thr_Lat", "Thr_BW", "memory EDP", "best")
	for _, res := range sweep {
		mark := ""
		if res.Thresholds == best {
			mark = "<=="
		}
		t.AddRow(stats.F(res.Thresholds.LatMPKI), stats.F(res.Thresholds.BWStallCycles),
			fmt.Sprintf("%.3e", res.Score), mark)
	}
	return best, t, nil
}

// AblationFallback compares the paper's fallback chains against a naive
// alternative where bandwidth-sensitive objects overflow into RLDRAM
// before LPDDR (the paper says "next best for HBM is LPDDR").
func (r *Runner) AblationFallback(mixName string) (*stats.Table, error) {
	mix, ok := workload.MixByName(mixName)
	if !ok {
		return nil, fmt.Errorf("exp: unknown mix %q", mixName)
	}
	naive := map[classify.Class][]mem.Kind{
		classify.LatencySensitive:   {mem.RLDRAM, mem.HBM, mem.LPDDR2, mem.DDR3},
		classify.BandwidthSensitive: {mem.HBM, mem.RLDRAM, mem.LPDDR2, mem.DDR3},
		classify.NonIntensive:       {mem.LPDDR2, mem.RLDRAM, mem.HBM, mem.DDR3},
	}
	defs := []SystemDef{
		{Name: "MOCA/paper-chains", Modules: sim.Heterogeneous(sim.Config1), Policy: sim.PolicyMOCA},
		{Name: "MOCA/naive-chains", Modules: sim.Heterogeneous(sim.Config1), Policy: sim.PolicyMOCA, Chains: naive},
	}
	t := stats.NewTable(fmt.Sprintf("Ablation: fallback chains on %s", mixName),
		"variant", "mem access time (ns)", "memory EDP", "mem power (W)")
	for _, def := range defs {
		res, err := r.RunMix(def, mix)
		if err != nil {
			return nil, err
		}
		t.AddRow(def.Name, stats.F(float64(res.AvgMemAccessTime())/1000),
			fmt.Sprintf("%.3e", res.MemEDP()), stats.F(res.MemPowerW()))
	}
	return t, nil
}

// AblationNamingDepth demonstrates why naming needs calling context
// (paper Fig. 3): a probe application allocates a hot and a cold object
// through the same allocation wrapper. With 5-level naming the two get
// distinct classes; with 1-level (return address only) they collapse to
// one name and the cold object inherits the hot object's placement.
func (r *Runner) AblationNamingDepth() (*stats.Table, error) {
	probe := workload.NamingProbe()
	t := stats.NewTable("Ablation: naming depth on the shared-wrapper probe app",
		"depth", "names", "classes", "verdict")
	for _, depth := range []int{heap.DefaultNamingDepth, 1} {
		fw := core.NewFramework()
		fw.NamingDepth = depth
		fw.ProfileWindow = r.FW.ProfileWindow
		pr, err := fw.Profile(probe)
		if err != nil {
			return nil, err
		}
		objs := pr.HeapObjects()
		classes := map[classify.Class]int{}
		for _, o := range objs {
			classes[o.Class]++
		}
		verdict := "hot/cold separated"
		if len(objs) < 2 {
			verdict = "hot and cold MERGED: cold data follows hot placement"
		}
		t.AddRow(fmt.Sprintf("%d", depth), fmt.Sprintf("%d", len(objs)),
			fmt.Sprintf("%v", classes), verdict)
	}
	return t, nil
}

// AblationMigration measures the Section IV-E contrast: MOCA's static
// object-level placement versus a dynamic hot-page migration policy that
// must monitor accesses at runtime and pay copy traffic, epoch lag, and
// TLB shootdowns for every move. Both run the same mix on config1.
func (r *Runner) AblationMigration(mixName string) (*stats.Table, error) {
	mix, ok := workload.MixByName(mixName)
	if !ok {
		return nil, fmt.Errorf("exp: unknown mix %q", mixName)
	}
	defs := []SystemDef{
		{Name: "Heter-App", Modules: sim.Heterogeneous(sim.Config1), Policy: sim.PolicyAppLevel},
		{Name: "Migration", Modules: sim.Heterogeneous(sim.Config1), Policy: sim.PolicyMigrate},
		{Name: "MOCA", Modules: sim.Heterogeneous(sim.Config1), Policy: sim.PolicyMOCA},
	}
	t := stats.NewTable(
		fmt.Sprintf("Ablation: MOCA vs dynamic page migration on %s (Section IV-E)", mixName),
		"policy", "mem access time (ns)", "memory EDP", "promotions", "copied KB")
	for _, def := range defs {
		res, err := r.RunMix(def, mix)
		if err != nil {
			return nil, err
		}
		t.AddRow(def.Name,
			stats.F(float64(res.AvgMemAccessTime())/1000),
			fmt.Sprintf("%.3e", res.MemEDP()),
			fmt.Sprintf("%d", res.Migration.Promotions),
			fmt.Sprintf("%d", res.Migration.CopiedKB))
	}
	// The probe app with real page-level skew — migration's home turf —
	// runs single-core under the same three policies.
	probe := workload.HotspotProbe()
	ins, err := r.FW.Instrument(probe)
	if err != nil {
		return nil, err
	}
	for _, def := range defs {
		cfg := sim.DefaultConfig(def.Name, def.Modules, def.Policy)
		res, err := r.measure(r.context(), cfg, []sim.ProcSpec{ins.Proc(def.Policy, workload.Ref)}, "")
		if err != nil {
			return nil, err
		}
		t.AddRow(def.Name+" (hotspotprobe)",
			stats.F(float64(res.AvgMemAccessTime())/1000),
			fmt.Sprintf("%.3e", res.MemEDP()),
			fmt.Sprintf("%d", res.Migration.Promotions),
			fmt.Sprintf("%d", res.Migration.CopiedKB))
	}
	t.AddNote("migration pays monitoring, epoch lag, copy traffic, and shootdowns at runtime;")
	t.AddNote("MOCA reaches its placement statically from the offline profile (Section IV-E);")
	t.AddNote("the hotspot probe has page-level skew, the best case for migration")
	return t, nil
}

// rowHitRate is the share of res's memory requests that hit an open row.
func rowHitRate(res *sim.Result) float64 {
	var hits, reqs uint64
	for _, ch := range res.Channels {
		hits += ch.Stats.RowHits
		reqs += ch.Stats.Requests()
	}
	return float64(hits) / float64(max(reqs, 1))
}

// AblationScheduler compares FR-FCFS against FCFS on the homogeneous DDR3
// system (Table I fixes FR-FCFS; this quantifies the choice).
func (r *Runner) AblationScheduler(appName string) (*stats.Table, error) {
	t := stats.NewTable(fmt.Sprintf("Ablation: memory scheduler on %s (Homogen-DDR3)", appName),
		"scheduler", "mem access time (ns)", "row-hit rate")
	for _, sched := range []mem.Scheduler{mem.FRFCFS, mem.FCFS} {
		cfg := sim.DefaultConfig("sched-"+sched.String(), sim.Homogeneous(mem.DDR3), sim.PolicyFixed)
		cfg.Scheduler = sched
		res, err := r.runConfig(cfg, appName)
		if err != nil {
			return nil, err
		}
		t.AddRow(sched.String(), stats.F(float64(res.AvgMemAccessTime())/1000), stats.F(rowHitRate(res)))
	}
	return t, nil
}

// AblationPrefetch measures how a stride prefetcher — absent from the
// paper's Table I system — would shift MOCA's classification signals:
// prefetching hides streaming misses, pushing bandwidth-sensitive objects
// toward non-intensive and sharpening the latency-sensitive ones (pointer
// chases are unprefetchable). A deployment with prefetching must
// recalibrate Thr_Lat/Thr_BW, which is exactly the paper's Section IV-C
// warning that thresholds are system-specific.
func (r *Runner) AblationPrefetch(apps ...string) (*stats.Table, error) {
	if len(apps) == 0 {
		apps = []string{"mcf", "lbm", "tracking"}
	}
	t := stats.NewTable("Ablation: stride prefetching vs classification signals",
		"app", "prefetch", "LLC MPKI", "stall/miss", "class", "pf accuracy")
	for _, name := range apps {
		spec, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("exp: unknown app %q", name)
		}
		for _, enable := range []bool{false, true} {
			fw := core.NewFramework()
			fw.ProfileWindow = r.FW.ProfileWindow
			fw.Prefetch = cache.PrefetchConfig{Enable: enable}
			pr, err := fw.Profile(spec)
			if err != nil {
				return nil, err
			}
			m := pr.AppMetrics()
			cls := fw.ObjectThresholds.Classify(m.MPKI, m.StallPerMiss)
			acc := "-"
			if enable {
				// Accuracy comes from a plain (non-profiling) run so the
				// stats reflect the measured window only.
				cfg := sim.DefaultConfig("pf", sim.Homogeneous(mem.DDR3), sim.PolicyFixed)
				cfg.Prefetch = cache.PrefetchConfig{Enable: true}
				res, err := r.runConfig(cfg, name)
				if err != nil {
					return nil, err
				}
				acc = stats.F(res.Cores[0].Prefetch.Accuracy())
			}
			t.AddRow(name, fmt.Sprintf("%v", enable), stats.F(m.MPKI), stats.F(m.StallPerMiss),
				cls.String(), acc)
		}
	}
	t.AddNote("prefetching hides streaming misses; thresholds must be recalibrated per system (Section IV-C)")
	return t, nil
}

// AblationRowPolicy compares open-page against closed-page operation on
// the homogeneous DDR3 system: streaming apps reward open rows, random
// ones barely care — quantifying the open-page choice behind Table I's
// FR-FCFS configuration.
func (r *Runner) AblationRowPolicy(apps ...string) (*stats.Table, error) {
	if len(apps) == 0 {
		apps = []string{"lbm", "mcf"}
	}
	t := stats.NewTable("Ablation: row-buffer policy (Homogen-DDR3)",
		"app", "policy", "mem access time (ns)", "row-hit rate")
	for _, name := range apps {
		for _, pol := range []mem.RowPolicy{mem.OpenPage, mem.ClosedPage} {
			cfg := sim.DefaultConfig("rowpol-"+pol.String(), sim.Homogeneous(mem.DDR3), sim.PolicyFixed)
			cfg.RowPolicy = pol
			res, err := r.runConfig(cfg, name)
			if err != nil {
				return nil, err
			}
			t.AddRow(name, pol.String(), stats.F(float64(res.AvgMemAccessTime())/1000), stats.F(rowHitRate(res)))
		}
	}
	return t, nil
}

// AblationMapping compares Table I's row-buffer-granularity bank
// interleave against page-granularity bank bits: streams lose all bank
// parallelism under page striping.
func (r *Runner) AblationMapping(appName string) (*stats.Table, error) {
	t := stats.NewTable(fmt.Sprintf("Ablation: bank interleave granularity on %s (Homogen-DDR3)", appName),
		"mapping", "mem access time (ns)")
	for _, stripe := range []mem.BankStripe{mem.StripeRowBuffer, mem.StripePage} {
		cfg := sim.DefaultConfig("map-"+stripe.String(), sim.Homogeneous(mem.DDR3), sim.PolicyFixed)
		cfg.BankStripe = stripe
		res, err := r.runConfig(cfg, appName)
		if err != nil {
			return nil, err
		}
		t.AddRow(stripe.String(), stats.F(float64(res.AvgMemAccessTime())/1000))
	}
	return t, nil
}
