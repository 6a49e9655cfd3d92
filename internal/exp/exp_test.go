package exp

import (
	"fmt"
	"strings"
	"testing"

	"moca/internal/classify"
	"moca/internal/workload"
)

// fastRunner trades window size for test speed; the full-size windows run
// in the benchmarks.
func fastRunner() *Runner {
	r := NewRunner()
	r.Measure = 60_000
	r.FW.ProfileWindow = 200_000
	return r
}

func TestStandardSystems(t *testing.T) {
	defs := StandardSystems()
	if len(defs) != 6 {
		t.Fatalf("systems = %d, want 6", len(defs))
	}
	names := SystemNames()
	for i, d := range defs {
		if d.Name != names[i] {
			t.Errorf("system %d = %s, want %s", i, d.Name, names[i])
		}
	}
}

func TestTable1And2Render(t *testing.T) {
	if s := Table1().String(); !strings.Contains(s, "84-entry ROB") {
		t.Errorf("Table I:\n%s", s)
	}
	s := Table2().String()
	for _, want := range []string{"DDR3", "HBM", "RLDRAM", "LPDDR2", "tRC"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table II missing %q:\n%s", want, s)
		}
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	r := fastRunner()
	got, table, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	want := Table3Expected()
	for app, class := range want {
		if got[app] != class {
			t.Errorf("%s classified %v, paper says %v\n%s", app, got[app], class, table)
		}
	}
}

func TestFig1(t *testing.T) {
	r := fastRunner()
	pts, table, err := r.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 {
		t.Fatalf("points = %d", len(pts))
	}
	// The suite must span the MPKI spectrum as in Fig. 1.
	var lo, hi bool
	for _, p := range pts {
		if p.MPKI < 5 {
			lo = true
		}
		if p.MPKI > 30 {
			hi = true
		}
	}
	if !lo || !hi {
		t.Errorf("suite does not span the MPKI spectrum:\n%s", table)
	}
}

func TestFig2ObjectDiversity(t *testing.T) {
	r := fastRunner()
	pts, _, err := r.Fig2("milc", "disparity")
	if err != nil {
		t.Fatal(err)
	}
	classes := map[classify.Class]int{}
	for _, p := range pts {
		classes[p.Class]++
	}
	// Objects within these apps must span all three classes (the paper's
	// core observation).
	for _, c := range classify.Classes() {
		if classes[c] == 0 {
			t.Errorf("no %v objects among milc+disparity", c)
		}
	}
	// milc: few hot objects among many cold ones.
	var milcHot, milcCold int
	for _, p := range pts {
		if p.App != "milc" {
			continue
		}
		if p.MPKI > 1 {
			milcHot++
		} else {
			milcCold++
		}
	}
	if milcHot > milcCold {
		t.Errorf("milc: %d hot vs %d cold objects; paper says few hot among many", milcHot, milcCold)
	}
}

func TestFig5(t *testing.T) {
	r := fastRunner()
	s := r.Fig5().String()
	for _, want := range []string{"RLDRAM", "HBM", "LPDDR"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig. 5 table missing %q", want)
		}
	}
}

func TestFig16SegmentsStayCold(t *testing.T) {
	r := fastRunner()
	pts, table, err := r.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.StackMPKI > 2 || p.CodeMPKI > 2 {
			t.Errorf("%s: stack %.2f / code %.2f MPKI too high for Section VI-D\n%s",
				p.App, p.StackMPKI, p.CodeMPKI, table)
		}
	}
}

func TestFig8And9SingleCoreShapes(t *testing.T) {
	skipHeavy(t, "full single-core sweep")
	r := fastRunner()
	f8, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	f9, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}

	// Paper shapes (Section VI-A):
	// Homogen-RL has the lowest memory access time on average.
	rlMean := f8.ColMean(SysRL)
	for _, sys := range []string{SysDDR3, SysHBM, SysLP, SysHeterApp} {
		if rlMean >= f8.ColMean(sys) {
			t.Errorf("Homogen-RL mean access time %.3f not below %s %.3f\n%s",
				rlMean, sys, f8.ColMean(sys), f8.Table())
		}
	}
	// Homogen-LP is the slowest system.
	lpMean := f8.ColMean(SysLP)
	for _, sys := range []string{SysDDR3, SysRL, SysHBM, SysMOCA} {
		if lpMean <= f8.ColMean(sys) {
			t.Errorf("Homogen-LP mean %.3f not the slowest vs %s %.3f", lpMean, sys, f8.ColMean(sys))
		}
	}
	// MOCA reduces access time well below DDR3...
	if m := f8.ColMean(SysMOCA); m > 0.75 {
		t.Errorf("MOCA mean access time %.3f vs DDR3; paper reports ~0.49", m)
	}
	// ...beats Heter-App...
	if f8.ColMean(SysMOCA) >= f8.ColMean(SysHeterApp) {
		t.Errorf("MOCA %.3f not faster than Heter-App %.3f\n%s",
			f8.ColMean(SysMOCA), f8.ColMean(SysHeterApp), f8.Table())
	}
	// ...and has the best (lowest) mean memory EDP of all six systems.
	mocaEDP := f9.ColMean(SysMOCA)
	for _, sys := range []string{SysDDR3, SysRL, SysHBM, SysLP, SysHeterApp} {
		if mocaEDP >= f9.ColMean(sys) {
			t.Errorf("MOCA mean EDP %.3f not below %s %.3f\n%s", mocaEDP, sys, f9.ColMean(sys), f9.Table())
		}
	}
	// Homogen-RL is the least energy-efficient homogeneous system.
	if f9.ColMean(SysRL) <= f9.ColMean(SysDDR3) {
		t.Errorf("Homogen-RL EDP %.3f not worse than DDR3 %.3f", f9.ColMean(SysRL), f9.ColMean(SysDDR3))
	}
	// The deviation EXPERIMENTS.md records: lbm's two streaming grids
	// oversubscribe the single HBM channel, so its MOCA memory EDP sits
	// above DDR3's (1.29 at this scale, 1.20 at full scale). Only a flip
	// of that direction fails.
	if e := f9.Get("lbm", SysMOCA); e <= 1 {
		t.Errorf("lbm MOCA memory EDP %.3f no longer above DDR3; update the deviation in EXPERIMENTS.md\n%s", e, f9.Table())
	}
	// The disparity case study: MOCA gives RLDRAM to the latency-sensitive
	// disparity map where Heter-App's first-faulting image buffer claims
	// it, so MOCA's access time relative to Heter-App's drops further on
	// disparity than on any latency-insensitive (bandwidth-sensitive) app.
	// At this scale disparity measures 0.52 (0.317 vs 0.605); the B apps
	// sit at 0.92-1.03. The non-intensive apps are not compared: Heter-App
	// parks them whole on LPDDR2, so sift and stitch gain slightly more.
	vsApp := func(app string) float64 { return f8.Get(app, SysMOCA) / f8.Get(app, SysHeterApp) }
	disparity := vsApp("disparity")
	for app, class := range Table3Expected() {
		if class != classify.BandwidthSensitive {
			continue
		}
		if r := vsApp(app); disparity >= r {
			t.Errorf("MOCA/Heter-App access time on disparity %.3f not below %s's %.3f\n%s", disparity, app, r, f8.Table())
		}
	}
}

func TestAblationNamingDepth(t *testing.T) {
	r := fastRunner()
	table, err := r.AblationNamingDepth()
	if err != nil {
		t.Fatal(err)
	}
	s := table.String()
	if !strings.Contains(s, "MERGED") {
		t.Errorf("depth-1 naming did not merge the probe objects:\n%s", s)
	}
	if !strings.Contains(s, "separated") {
		t.Errorf("depth-5 naming did not separate the probe objects:\n%s", s)
	}
}

func TestAblationScheduler(t *testing.T) {
	r := fastRunner()
	table, err := r.AblationScheduler("lbm")
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Errorf("scheduler ablation rows = %d", len(table.Rows))
	}
}

func TestRunnerErrors(t *testing.T) {
	r := fastRunner()
	if _, err := r.Instrument("bogus"); err == nil {
		t.Error("unknown app accepted")
	}
	if _, _, err := r.AblationThresholds("bogus", nil, nil); err == nil {
		t.Error("unknown mix accepted")
	}
	if _, err := r.AblationFallback("bogus"); err == nil {
		t.Error("unknown mix accepted")
	}
}

func TestRunCaching(t *testing.T) {
	r := fastRunner()
	def := StandardSystems()[0]
	a, err := r.RunSingle(def, "sift")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunSingle(def, "sift")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second run did not hit the cache")
	}
}

func TestMixRun(t *testing.T) {
	skipHeavy(t, "4-core run")
	r := fastRunner()
	mix, _ := workload.MixByName("2B2N")
	res, err := r.RunMix(StandardSystems()[5], mix) // MOCA
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 4 {
		t.Errorf("cores = %d", len(res.Cores))
	}
}

func TestAblationMigration(t *testing.T) {
	skipHeavy(t, "three 4-core runs")
	r := fastRunner()
	table, err := r.AblationMigration("2L1B1N")
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 6 {
		t.Fatalf("rows = %d, want 3 policies x (mix + hotspot probe)", len(table.Rows))
	}
	if _, err := r.AblationMigration("bogus"); err == nil {
		t.Error("unknown mix accepted")
	}
}

func TestExtensionPCM(t *testing.T) {
	skipHeavy(t, "three 4-core runs")
	r := fastRunner()
	table, err := r.ExtensionPCM("2B2N")
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 variants", len(table.Rows))
	}
	parse := func(row []string) float64 {
		var v float64
		fmt.Sscanf(row[1], "%f", &v)
		return v
	}
	parseEDP := func(row []string) float64 {
		var v float64
		fmt.Sscanf(row[2], "%e", &v)
		return v
	}
	parsePCMWrites := func(row []string) float64 {
		var v float64
		fmt.Sscanf(row[5], "%f", &v)
		return v
	}
	var allPCM, mocaTier float64
	var ftEDP, mtEDP, waEDP float64
	var mtWrites, waWrites float64
	for _, row := range table.Rows {
		switch row[0] {
		case "all-PCM":
			allPCM = parse(row)
		case "first-touch-tier":
			ftEDP = parseEDP(row)
		case "moca-tier":
			mocaTier = parse(row)
			mtEDP = parseEDP(row)
			mtWrites = parsePCMWrites(row)
		case "moca-tier-write-aware":
			waEDP = parseEDP(row)
			waWrites = parsePCMWrites(row)
		}
	}
	if mocaTier >= allPCM {
		t.Errorf("moca-tier (%.1f ns) not faster than all-PCM (%.1f ns)\n%s", mocaTier, allPCM, table)
	}
	if mtEDP >= ftEDP {
		t.Errorf("moca-tier EDP (%.3e) not below first-touch tiering (%.3e)\n%s", mtEDP, ftEDP, table)
	}
	if waEDP >= mtEDP {
		t.Errorf("write-aware tiering EDP (%.3e) not below class-only (%.3e)\n%s", waEDP, mtEDP, table)
	}
	if waWrites >= mtWrites {
		t.Errorf("write-aware tiering did not reduce PCM writes (%v vs %v)\n%s", waWrites, mtWrites, table)
	}
	if _, err := r.ExtensionPCM("bogus"); err == nil {
		t.Error("unknown mix accepted")
	}
}

func TestAblationPrefetch(t *testing.T) {
	skipHeavy(t, "six profiling runs")
	r := fastRunner()
	table, err := r.AblationPrefetch("lbm")
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	parse := func(row []string) float64 {
		var v float64
		fmt.Sscanf(row[2], "%f", &v)
		return v
	}
	var off, on float64
	for _, row := range table.Rows {
		if row[1] == "true" {
			on = parse(row)
		} else {
			off = parse(row)
		}
	}
	if on >= off {
		t.Errorf("prefetching did not reduce lbm's MPKI (%.1f -> %.1f)\n%s", off, on, table)
	}
	if _, err := r.AblationPrefetch("bogus"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestAblationRowPolicyAndMapping(t *testing.T) {
	skipHeavy(t, "several single-core runs")
	r := fastRunner()
	rp, err := r.AblationRowPolicy("lbm")
	if err != nil {
		t.Fatal(err)
	}
	parse := func(row []string, col int) float64 {
		var v float64
		fmt.Sscanf(row[col], "%f", &v)
		return v
	}
	var open, closed float64
	for _, row := range rp.Rows {
		if row[1] == "open-page" {
			open = parse(row, 2)
		} else {
			closed = parse(row, 2)
		}
	}
	if open >= closed {
		t.Errorf("open-page (%.1f ns) not faster than closed-page (%.1f ns) for lbm\n%s", open, closed, rp)
	}

	mp, err := r.AblationMapping("lbm")
	if err != nil {
		t.Fatal(err)
	}
	var rowbuf, page float64
	for _, row := range mp.Rows {
		if row[0] == "rowbuf-stripe" {
			rowbuf = parse(row, 1)
		} else {
			page = parse(row, 1)
		}
	}
	if rowbuf >= page {
		t.Errorf("row-buffer stripe (%.1f ns) not faster than page stripe (%.1f ns)\n%s", rowbuf, page, mp)
	}
}

func TestExtensionKNL(t *testing.T) {
	skipHeavy(t, "three 4-core runs")
	r := fastRunner()
	table, err := r.ExtensionKNL("2L1B1N")
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	parse := func(row []string, col int) float64 {
		var v float64
		fmt.Sscanf(row[col], "%f", &v)
		return v
	}
	var ddr4Only, knlMoca float64
	for _, row := range table.Rows {
		switch row[0] {
		case "ddr4-only":
			ddr4Only = parse(row, 1)
		case "knl-moca":
			knlMoca = parse(row, 1)
		}
	}
	if knlMoca >= ddr4Only {
		t.Errorf("knl-moca (%.1f ns) not faster than ddr4-only (%.1f ns)\n%s", knlMoca, ddr4Only, table)
	}
	if _, err := r.ExtensionKNL("bogus"); err == nil {
		t.Error("unknown mix accepted")
	}
}

func TestExtensionPhases(t *testing.T) {
	skipHeavy(t, "three long runs")
	r := fastRunner()
	table, err := r.ExtensionPhases()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// Migration must actually adapt (promotions happen).
	for _, row := range table.Rows {
		if row[0] == "Migration" && row[3] == "0" {
			t.Errorf("migration never promoted on the phase-flipping app\n%s", table)
		}
	}
}

func TestParallelismMatchesSerial(t *testing.T) {
	skipHeavy(t, "repeated runs")
	// The runner's bounded parallelism must not change any result:
	// simulations are independent and individually deterministic.
	run := func(par int) float64 {
		r := NewRunner()
		r.Measure = 50_000
		r.FW.ProfileWindow = 80_000
		r.Parallelism = par
		defs := StandardSystems()[:2]
		if err := r.warmSingles(defs, []string{"sift", "gcc"}); err != nil {
			t.Fatal(err)
		}
		res, err := r.RunSingle(defs[0], "sift")
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.AvgMemAccessTime())
	}
	if a, b := run(1), run(8); a != b {
		t.Errorf("parallel (%v) and serial (%v) runs diverged", b, a)
	}
}
