package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"

	"moca/internal/stats"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	bf := new(benchmarkFile)
	if err := json.Unmarshal(data, bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// matchesCode reports the first difference between the workloads and
// metrics the file lists and those the code emits, name for name, unit for
// unit and in order.
func (bf *benchmarkFile) matchesCode() error {
	if bf.RunSeconds <= 0 {
		return fmt.Errorf("BENCHMARK.json: run_seconds %d, want a positive number", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			return fmt.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, file, code []metricDef) error {
		if len(file) != len(code) {
			return fmt.Errorf("BENCHMARK.json lists %d %s metrics, the code %d", len(file), kind, len(code))
		}
		for i := range file {
			if file[i] != code[i] {
				return fmt.Errorf("%s metric %d: BENCHMARK.json %v, code %v", kind, i, file[i], code[i])
			}
		}
		return nil
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if err := check("end-to-end", e2e, endToEnd); err != nil {
		return err
	}
	return check("per-layer", layers, perLayer)
}

// compareMain judges result set B (the change) against A (the parent).
// Each argument is a file of captured output of untraced runs. For every
// workload and end-to-end metric it prints each side's quartiles and one
// verdict: within bound, worse (B's median worse than A's by more than the
// bound), or unresolved (either side's spread, the distance between
// quartiles as a share of the median, exceeds the bound, and B does not
// read better than A on every run). A workload whose runs differ in length
// is not judged. model.* values must be identical across every run with
// the same workload and seed. Exit status 1 flags a worse, unresolved,
// unjudged or changed result.
func compareMain(bf *benchmarkFile, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: usage: bench compare A B")
		return 2
	}
	var sets [2][]*record
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		sets[i], err = readRecords(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", path, err)
			return 2
		}
		// A traced record's set-up ran once, under the profiler, so its
		// end-to-end metrics do not compare with an untraced run's.
		for _, r := range sets[i] {
			if r.Traced {
				fmt.Fprintf(stderr, "bench: %s: a %s record is from a traced run; compare takes untraced runs only\n", path, r.Workload)
				return 2
			}
		}
	}
	status := 0
	tw := stats.NewTable("", "workload", "metric", "unit", "A q1/med/q3 (n)", "B q1/med/q3 (n)", "change", "bound", "verdict")
	for _, w := range bf.Workloads {
		a, b := byWorkload(sets[0], w.Name), byWorkload(sets[1], w.Name)
		if len(a) == 0 || len(b) == 0 {
			tw.AddRow(w.Name, "-", "", fmt.Sprint(len(a), " runs"), fmt.Sprint(len(b), " runs"), "", "", "missing")
			status = 1
			continue
		}
		all := append(append([]*record{}, a...), b...)
		if lengths := runLengths(all); len(lengths) > 1 {
			tw.AddRow(w.Name, "-", "", "", "", "", "", fmt.Sprintf("not judged: runs of %v s mixed", lengths))
			status = 1
			continue
		}
		for _, m := range bf.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			v := judge(va, vb, m.Better == "higher", m.Bound)
			if v.verdict != "within" {
				status = 1
			}
			tw.AddRow(w.Name, m.Name, m.Unit, quartileCell(va), quartileCell(vb),
				fmt.Sprintf("%+.1f%%", v.change*100), fmt.Sprintf("%.0f%%", m.Bound*100), v.verdict)
		}
		verdict := "identical"
		if !modelsAgree(all) {
			verdict, status = "changed", 1
		}
		tw.AddRow(w.Name, "model.*", "", "", "", "", "exact", verdict)
	}
	fmt.Fprint(stdout, tw.String())
	return status
}

// runLengths returns the distinct timed-phase lengths of the records, in
// seconds, in ascending order.
func runLengths(recs []*record) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, r := range recs {
		if s := r.Counts["seconds"]; !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func byWorkload(recs []*record, name string) []*record {
	var out []*record
	for _, r := range recs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func values(recs []*record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

type judgement struct {
	change  float64 // B's median against A's; positive is worse
	verdict string
}

func judge(a, b []float64, higherBetter bool, bound float64) judgement {
	if len(a) == 0 || len(b) == 0 {
		return judgement{math.NaN(), "missing"}
	}
	_, medA, _ := quartiles(a)
	_, medB, _ := quartiles(b)
	j := judgement{change: (medB - medA) / medA}
	if higherBetter {
		j.change = -j.change
	}
	switch {
	case spread(a) > bound || spread(b) > bound:
		j.verdict = "unresolved"
		if allBetter(a, b, higherBetter) {
			j.verdict = "within"
		}
	case j.change > bound:
		j.verdict = "worse"
	default:
		j.verdict = "within"
	}
	return j
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, higherBetter bool) bool {
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	if higherBetter {
		return minB > maxA
	}
	return maxB < minA
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) (exclusive method) and
// statistics.median compute them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return q(1), med, q(3)
}

func quartileCell(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', 5, 64) }
	return fmt.Sprintf("%s/%s/%s (%d)", f(q1), f(med), f(q3), len(xs))
}

// modelsAgree reports whether runs with the same seed agree exactly on
// every model statistic.
func modelsAgree(recs []*record) bool {
	first := map[uint64]map[string]float64{}
	for _, r := range recs {
		ref, ok := first[r.Seed]
		if !ok {
			first[r.Seed] = r.Model
			continue
		}
		if len(ref) != len(r.Model) {
			return false
		}
		for k, v := range r.Model {
			if rv, ok := ref[k]; !ok || rv != v {
				return false
			}
		}
	}
	return true
}
