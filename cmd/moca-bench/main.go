// Command moca-bench regenerates the tables and figures of the MOCA paper
// (IPDPS 2018) from simulation and prints them as text tables.
//
// Usage:
//
//	moca-bench [flags] [experiment ...]
//
// Experiments: table1 table2 table3 fig1 fig2 fig5 fig8 fig9 fig10 fig11
// fig12 fig13 fig14 fig15 fig16 headline ablations extensions, or "all"
// (default: headline). Results are cached across experiments within one
// invocation, so "all" reuses the shared runs exactly as the figures do.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"moca/internal/cmdutil"
	"moca/internal/exp"
	"moca/internal/obs"
	"moca/internal/stats"
)

// main delegates to run so every deferred flush (CPU/heap profiles, the
// run trace) executes even when an experiment fails: os.Exit in the body
// of main would silently discard them.
func main() {
	os.Exit(run())
}

func run() (code int) {
	measure := flag.Uint64("measure", 300_000, "measured instructions per core per run")
	window := flag.Uint64("profile-window", 300_000, "profiling run window (instructions)")
	parallel := flag.Int("parallel", 0, "max concurrent simulations (0 = NumCPU)")
	format := flag.String("format", "text", "output format: text, md (markdown), csv (grids only)")
	metrics := flag.Bool("metrics", false, "collect per-run metrics and print per-system aggregate tables at the end")
	traceOut := flag.String("trace-out", "", "write the structured run trace (JSON lines) to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	cacheFlags := cmdutil.RegisterCacheFlags("moca-bench")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: moca-bench [flags] [experiment ...]\n")
		fmt.Fprintf(os.Stderr, "experiments: %s, all\n", strings.Join(names(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()

	ctx, stop := cmdutil.NotifyContext(context.Background(), "moca-bench")
	defer stop()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "moca-bench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "moca-bench: cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "moca-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // get up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "moca-bench: memprofile: %v\n", err)
			}
		}()
	}

	r := exp.NewRunner()
	r.Measure = *measure
	r.FW.ProfileWindow = *window
	r.Parallelism = *parallel
	r.Ctx = ctx
	var runTrace *obs.Trace
	if *traceOut != "" {
		runTrace = obs.NewTrace(0)
		// Flush from a defer so a failing or interrupted sweep still
		// leaves its partial trace on disk.
		defer func() {
			if err := cmdutil.WriteTrace(*traceOut, runTrace); err != nil {
				fmt.Fprintf(os.Stderr, "moca-bench: %v\n", err)
				if code == 0 {
					code = 1
				}
				return
			}
			fmt.Printf("[wrote %d trace events to %s (%d dropped past cap)]\n",
				runTrace.Len(), *traceOut, runTrace.Dropped())
		}()
	}
	r.Obs = obs.Options{Metrics: *metrics, Trace: runTrace}

	cache, status := cacheFlags.Open()
	if status != 0 {
		return status
	}
	r.Cache = cache
	if cache != nil {
		defer func() {
			st := cache.Stats()
			fmt.Printf("[cache %s (%s): %d hits, %d misses, %d written, %d evicted]\n",
				cache.Dir(), cache.Mode(), st.Hits, st.Misses, st.Writes, st.Evictions)
		}()
	}

	switch *format {
	case "text", "md", "csv":
	default:
		fmt.Fprintf(os.Stderr, "moca-bench: unknown format %q\n", *format)
		return 2
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"headline"}
	}
	if len(args) == 1 && args[0] == "all" {
		args = names()
	}
	for _, name := range args {
		start := time.Now()
		if err := runOne(r, strings.ToLower(name), *format); err != nil {
			fmt.Fprintf(os.Stderr, "moca-bench: %s: %v\n", name, err)
			return 1
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if *metrics {
		printMetrics(r)
	}
	return 0
}

// printMetrics aggregates the cached runs' snapshots per system (counters
// add, high-watermark gauges take the max) and prints one table each.
func printMetrics(r *exp.Runner) {
	bySystem := map[string][]*obs.Snapshot{}
	for key, res := range r.Results() {
		name := key
		if i := strings.Index(key, "|"); i >= 0 {
			name = key[:i]
		}
		bySystem[name] = append(bySystem[name], res.Obs)
	}
	var systems []string
	for name := range bySystem {
		systems = append(systems, name)
	}
	sort.Strings(systems)
	for _, name := range systems {
		merged := obs.Merge(bySystem[name]...)
		fmt.Println(merged.Table(fmt.Sprintf("metrics: %s (aggregate over %d cached runs)",
			name, len(bySystem[name]))).String())
	}
}

func names() []string {
	return []string{
		"table1", "table2", "table3",
		"fig1", "fig2", "fig5", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16",
		"headline", "ablations", "extensions",
	}
}

func runOne(r *exp.Runner, name, format string) error {
	show := func(t *stats.Table, err error) error {
		if err != nil {
			return err
		}
		if format == "md" {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.String())
		}
		return nil
	}
	grid := func(g *stats.Grid, err error) error {
		if err != nil {
			return err
		}
		switch format {
		case "csv":
			fmt.Printf("# %s\n%s\n", g.Name, g.CSV())
		case "md":
			fmt.Println(g.Table().Markdown())
		default:
			fmt.Println(g.Table().String())
		}
		return nil
	}
	switch name {
	case "table1":
		return show(exp.Table1(), nil)
	case "table2":
		return show(exp.Table2(), nil)
	case "table3":
		_, t, err := r.Table3()
		return show(t, err)
	case "fig1":
		_, t, err := r.Fig1()
		return show(t, err)
	case "fig2":
		_, t, err := r.Fig2()
		return show(t, err)
	case "fig5":
		return show(r.Fig5(), nil)
	case "fig8":
		return grid(r.Fig8())
	case "fig9":
		return grid(r.Fig9())
	case "fig10":
		return grid(r.Fig10())
	case "fig11":
		return grid(r.Fig11())
	case "fig12":
		return grid(r.Fig12())
	case "fig13":
		return grid(r.Fig13())
	case "fig14":
		return grid(r.Fig14())
	case "fig15":
		return grid(r.Fig15())
	case "fig16":
		_, t, err := r.Fig16()
		return show(t, err)
	case "headline":
		_, t, err := r.Headline()
		return show(t, err)
	case "ablations":
		best, t, err := r.AblationThresholds("2L1B1N",
			[]float64{0.5, 1, 2, 5}, []float64{10, 20, 40})
		if err != nil {
			return err
		}
		fmt.Println(t.String())
		fmt.Printf("best thresholds: Thr_Lat=%.1f Thr_BW=%.1f\n\n", best.LatMPKI, best.BWStallCycles)
		if err := show(r.AblationFallback("1L3B")); err != nil {
			return err
		}
		if err := show(r.AblationNamingDepth()); err != nil {
			return err
		}
		if err := show(r.AblationMigration("2L1B1N")); err != nil {
			return err
		}
		if err := show(r.AblationPrefetch()); err != nil {
			return err
		}
		if err := show(r.AblationRowPolicy()); err != nil {
			return err
		}
		if err := show(r.AblationMapping("lbm")); err != nil {
			return err
		}
		return show(r.AblationScheduler("lbm"))
	case "extensions":
		if err := show(r.ExtensionPCM("2B2N")); err != nil {
			return err
		}
		if err := show(r.ExtensionKNL("2L1B1N")); err != nil {
			return err
		}
		return show(r.ExtensionPhases())
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}
