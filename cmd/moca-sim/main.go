// Command moca-sim runs one simulation: a single application or a 4-app
// workload mix on a chosen memory system, and prints the measured memory
// and system metrics plus the per-module page placement census.
//
// Usage:
//
//	moca-sim [-system NAME] [-measure N] (-app NAME | -mix NAME)
//
// Systems: ddr3, rl, hbm, lp (homogeneous); heter-app, moca (heterogeneous
// config1); heter-app@config2, moca@config3, ... (other capacity configs).
//
// MOCA and Heter-App systems need per-application classification; by
// default the offline profiling stage runs automatically. Pass -profiles
// DIR to load <app>.profile.json files written by moca-profile instead.
//
// A local run goes through the same experiment runner (exp.Runner) as
// moca-bench and moca-served, so with -cache-dir it reuses cached
// profiles and results, and its output is byte-identical to a -remote run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"moca"
	"moca/internal/cmdutil"
	"moca/internal/exp"
	"moca/internal/profile"
	"moca/internal/wire"
	"moca/internal/wire/client"
)

// main delegates to run so deferred flushes (the run trace) execute even
// when the simulation fails: os.Exit in main's body would discard them.
func main() {
	os.Exit(run())
}

func run() (code int) {
	system := flag.String("system", "moca", "memory system (ddr3|rl|hbm|lp|heter-app|moca|migrate, optionally @config2/@config3)")
	appName := flag.String("app", "", "single application to run")
	mixName := flag.String("mix", "", "4-application workload set to run")
	measure := flag.Uint64("measure", 300_000, "measured instructions per core")
	window := flag.Uint64("profile-window", 300_000, "auto-profiling window (instructions)")
	profiles := flag.String("profiles", "", "directory of <app>.profile.json files (skips auto-profiling)")
	jsonOut := flag.Bool("json", false, "emit the result as JSON instead of tables")
	metrics := flag.Bool("metrics", false, "collect runtime metrics and emit the snapshot (table + JSON)")
	traceOut := flag.String("trace-out", "", "write the structured run trace (JSON lines) to this file")
	cacheFlags := cmdutil.RegisterCacheFlags("moca-sim")
	remote := flag.String("remote", "", "run on a moca-served instance at this address instead of locally (host:port)")
	flag.Parse()

	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "moca-sim: "+format+"\n", args...)
		return 1
	}

	ctx, stop := cmdutil.NotifyContext(context.Background(), "moca-sim")
	defer stop()

	if (*appName == "") == (*mixName == "") {
		return fail("exactly one of -app or -mix is required")
	}
	var mix moca.Mix
	apps := []string{*appName}
	if *mixName != "" {
		var ok bool
		if mix, ok = moca.MixByName(*mixName); !ok {
			var names []string
			for _, m := range moca.WorkloadMixes() {
				names = append(names, m.Name)
			}
			return fail("unknown mix %q (have: %s)", *mixName, strings.Join(names, " "))
		}
		apps = mix.Apps
	}

	if *remote != "" {
		res, err := runRemote(ctx, *remote, *system, *appName, *mixName, *measure, *window, *metrics)
		if err != nil {
			return fail("%v", err)
		}
		if err := cmdutil.Report(os.Stdout, res, *jsonOut); err != nil {
			return fail("%v", err)
		}
		return 0
	}

	def, err := exp.SystemByName(*system)
	if err != nil {
		return fail("%v", err)
	}
	r := exp.NewRunner()
	r.Measure = *measure
	r.FW.ProfileWindow = *window
	r.Ctx = ctx
	var runTrace *moca.RunTrace
	if *traceOut != "" {
		runTrace = moca.NewRunTrace(0)
		// Flush from a defer so a failing run still leaves its partial
		// trace on disk.
		defer func() {
			if err := cmdutil.WriteTrace(*traceOut, runTrace); err != nil {
				fmt.Fprintf(os.Stderr, "moca-sim: %v\n", err)
				if code == 0 {
					code = 1
				}
				return
			}
			fmt.Fprintf(os.Stderr, "moca-sim: wrote %d trace events to %s (%d dropped past cap)\n",
				runTrace.Len(), *traceOut, runTrace.Dropped())
		}()
	}
	r.Obs = moca.ObsOptions{Metrics: *metrics, Trace: runTrace}
	cache, status := cacheFlags.Open()
	if status != 0 {
		return status
	}
	r.Cache = cache
	if *profiles != "" {
		for _, app := range apps {
			if err := useProfile(r, *profiles, app); err != nil {
				return fail("%v", err)
			}
		}
	}

	var res *moca.Result
	if *appName != "" {
		res, err = r.RunSingle(def, *appName)
	} else {
		res, err = r.RunMix(def, mix)
	}
	if err != nil {
		return fail("%v", err)
	}
	if r.Stats().DiskHits > 0 {
		fmt.Fprintf(os.Stderr, "moca-sim: result loaded from cache %s\n", cache.Dir())
	}
	if err := cmdutil.Report(os.Stdout, res, *jsonOut); err != nil {
		return fail("%v", err)
	}
	return 0
}

// runRemote submits the run to a moca-served instance and waits for its
// result, printing progress ticks to stderr. Identical submissions from
// any number of moca-sim invocations share one simulation server-side.
// The local cache and trace flags do not apply: the server owns its cache,
// and the run trace never crosses the wire.
func runRemote(ctx context.Context, addr, system, app, mix string, measure, window uint64, metrics bool) (*moca.Result, error) {
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		return nil, fmt.Errorf("connecting to %s: %w", addr, err)
	}
	defer c.Close()
	var lastPct uint64 = ^uint64(0)
	res, _, err := c.Run(ctx, wire.Submit{
		System:        system,
		App:           app,
		Mix:           mix,
		Measure:       measure,
		ProfileWindow: window,
		Metrics:       metrics,
	}, func(done, total uint64) {
		if total == 0 {
			return
		}
		if pct := done * 100 / total; pct != lastPct {
			lastPct = pct
			fmt.Fprintf(os.Stderr, "moca-sim: remote run %d%% (%d/%d instructions)\n", pct, done, total)
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// useProfile loads dir/<app>.profile.json, written by moca-profile, as
// app's instrumentation in r.
func useProfile(r *exp.Runner, dir, app string) error {
	data, err := os.ReadFile(filepath.Join(dir, app+".profile.json"))
	if err != nil {
		return fmt.Errorf("loading profile: %w (run moca-profile -o %s %s)", err, dir, app)
	}
	pr, err := profile.Unmarshal(data)
	if err != nil {
		return err
	}
	return r.UseProfile(app, pr)
}
