// Command bench is the repository benchmark. It times five workloads that
// reach the simulator, the experiment harness and the server only through
// their public entry points, checks every result against an oracle, and in
// a traced run attributes host time to the repository's layers.
//
// Run it from the repository root through bench/run.sh, which builds it
// from source:
//
//	sh bench/run.sh -workload sim-mcf -seed 1
//	sh bench/run.sh -workload all -seed 1 -trace 1
//	sh bench/run.sh compare before.txt after.txt
//
// Every run first checks that BENCHMARK.json lists the workloads and
// metrics this code emits; -seconds defaults to its run_seconds.
//
// A single-workload run prints a human table, one JSON record line holding
// every metric with its unit plus the host and run details, and as its last
// line the summary object {"correct", "attempted", "failed", "metrics"}.
// -workload all runs one child process per workload and prints their
// records and a combined table. compare reads the captured output of two
// sets of runs and judges each end-to-end metric against the bounds in
// BENCHMARK.json. See bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"moca/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options fix one benchmark run.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	spans   string // directory spans.json goes to (traced runs)
	work    string // temporary directory for caches and trace files
	scale   scale
	// corrupt flips one byte of the first timed result before the oracle
	// sees it; the tests use it to show the oracle catches a bad result.
	corrupt bool
}

func run(args []string, stdout, stderr io.Writer) int {
	// Every run checks BENCHMARK.json against the code, so the file cannot
	// drift from what the benchmark emits.
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintln(stderr, "bench: run from the repository root (BENCHMARK.json not found)")
		return 2
	}
	if err == nil {
		err = bf.matchesCode()
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(bf, args[1:], stdout, stderr)
	}
	flags := flag.NewFlagSet("bench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "all", "workload to run, or all")
	seed := flags.Uint64("seed", 0, "input seed; 0 selects the paper's inputs")
	seconds := flags.Int("seconds", bf.RunSeconds, "length of the timed phase in seconds")
	trace := flags.Int("trace", 0, "1 adds the traced run and reports per-layer metrics")
	spans := flags.String("spans", filepath.Join(buildDir, "trace"), "directory for spans.json in traced runs")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if flags.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload name|all] [-seed N] [-seconds S] [-trace 0|1] [-spans DIR] | compare A B")
		return 2
	}
	opts := options{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		spans:   *spans,
		scale:   fullScale,
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s or all)\n", *name, workloadNames())
		return 2
	}
	workRoot := filepath.Join(buildDir, "work")
	err = os.MkdirAll(workRoot, 0o755)
	var work string
	if err == nil {
		work, err = os.MkdirTemp(workRoot, w.name+"-")
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	opts.work = work

	rec, err := runWorkload(context.Background(), w, opts, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	rec.Host = hostInfo(".")
	printTable(stdout, []*record{rec})
	if err := writeJSONLine(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sum := summary{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics}
	if opts.trace {
		sum.Metrics = rec.Layers
	}
	if err := writeJSONLine(stdout, sum); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// buildDir holds everything the benchmark writes, relative to the
// repository root; .gitignore lists it.
const buildDir = ".bench_build"

// summary is the last line of a single-workload run.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// runAll runs every workload in its own child process, one after another,
// so each one's peak RSS and CPU profile are its own.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var recs []*record
	status := 0
	for _, w := range workloads {
		childArgs := append(append([]string{}, args...), "-workload", w.name)
		var out bytes.Buffer
		cmd := exec.Command(self, childArgs...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			status = 1
			continue
		}
		rs, err := readRecords(&out)
		if err != nil || len(rs) != 1 {
			fmt.Fprintf(stderr, "bench: %s: no record in output (%v)\n", w.name, err)
			status = 1
			continue
		}
		recs = append(recs, rs[0])
		if err := writeJSONLine(stdout, rs[0]); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	printTable(stdout, recs)
	return status
}

// readRecords returns every record line in captured benchmark output,
// skipping tables and summary lines.
func readRecords(r io.Reader) ([]*record, error) {
	var out []*record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte(`{"workload"`)) {
			continue
		}
		rec := new(record)
		if err := json.Unmarshal(line, rec); err != nil {
			return nil, fmt.Errorf("record line: %w", err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// printTable writes every metric of the records as a grid, one column per
// workload.
func printTable(w io.Writer, recs []*record) {
	if len(recs) == 0 {
		return
	}
	cols := []string{"metric", "unit"}
	for _, r := range recs {
		cols = append(cols, r.Workload)
	}
	tw := stats.NewTable("", cols...)
	section := func(title string, get func(*record) map[string]metric) {
		seen := map[string]bool{}
		var names []string
		units := map[string]string{}
		for _, r := range recs {
			for _, n := range sortedKeys(get(r)) {
				if !seen[n] {
					seen[n] = true
					names = append(names, n)
					units[n] = get(r)[n].Unit
				}
			}
		}
		if len(names) == 0 {
			return
		}
		tw.AddRow("["+title+"]", "")
		for _, n := range names {
			cells := []string{n, units[n]}
			for _, r := range recs {
				if m, ok := get(r)[n]; ok {
					cells = append(cells, strconv.FormatFloat(m.Value, 'g', 6, 64))
				} else {
					cells = append(cells, "-")
				}
			}
			tw.AddRow(cells...)
		}
	}
	section("end to end", func(r *record) map[string]metric { return r.Metrics })
	section("detail", func(r *record) map[string]metric { return r.Detail })
	section("per layer", func(r *record) map[string]metric { return r.Layers })
	status := []string{"correct", ""}
	for _, r := range recs {
		status = append(status, fmt.Sprintf("%v (%d/%d failed)", r.Correct, r.Failed, r.Attempted))
	}
	tw.AddRow(status...)
	fmt.Fprint(w, tw.String())
}
