package workload

import (
	"reflect"
	"testing"
	"testing/quick"

	"moca/internal/cpu"
	"moca/internal/heap"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 10 {
		t.Errorf("different seeds matched %d/1000 draws", same)
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if v := r.Uint64n(3); v >= 3 {
			t.Fatalf("Uint64n out of range: %d", v)
		}
	}
}

func TestRNGPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestCursorStreamWraps(t *testing.T) {
	c := newCursor(Stream, 1000, 64, 16, 0, NewRNG(1))
	var addrs []uint64
	for i := 0; i < 6; i++ {
		a, dep := c.next()
		if dep {
			t.Error("stream load marked dependent")
		}
		addrs = append(addrs, a)
	}
	want := []uint64{1000, 1016, 1032, 1048, 1000, 1016}
	for i, w := range want {
		if addrs[i] != w {
			t.Fatalf("stream addrs = %v, want %v", addrs, want)
		}
	}
}

func TestCursorStreamDepIsDependent(t *testing.T) {
	c := newCursor(StreamDep, 0, 1024, 8, 0, NewRNG(1))
	_, dep := c.next()
	if !dep {
		t.Error("stream-dep load not dependent")
	}
}

func TestCursorChaseAndRandomStayInBounds(t *testing.T) {
	for _, p := range []Pattern{Chase, Random} {
		c := newCursor(p, 4096, 8192, 8, 0, NewRNG(9))
		for i := 0; i < 10000; i++ {
			a, dep := c.next()
			if a < 4096 || a >= 4096+8192 {
				t.Fatalf("%v address %d out of bounds", p, a)
			}
			if (p == Chase) != dep {
				t.Fatalf("%v dependency = %v", p, dep)
			}
		}
	}
}

func TestCursorResidentStaysInWindow(t *testing.T) {
	c := newCursor(Resident, 0, 4*mb, 8, 0, NewRNG(1))
	for i := 0; i < 100000; i++ {
		a, _ := c.next()
		if a >= residentWindow {
			t.Fatalf("resident access at %d beyond window %d", a, residentWindow)
		}
	}
}

func TestPatternStrings(t *testing.T) {
	for p, want := range map[Pattern]string{
		Stream: "stream", StreamDep: "stream-dep", Chase: "chase",
		Random: "random", Resident: "resident",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
}

func TestSuiteValidatesAndMatchesTableIII(t *testing.T) {
	suite := Suite()
	if len(suite) != 10 {
		t.Fatalf("suite has %d apps, want 10", len(suite))
	}
	names := map[string]bool{}
	for _, s := range suite {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if names[s.Name] {
			t.Errorf("duplicate app %s", s.Name)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"mcf", "milc", "libquantum", "disparity", "mser", "lbm", "tracking", "gcc", "sift", "stitch"} {
		if !names[want] {
			t.Errorf("missing Table III app %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	if s, ok := ByName("mcf"); !ok || s.Name != "mcf" {
		t.Error("ByName(mcf) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
	if len(Names()) != 10 {
		t.Error("Names() wrong length")
	}
}

// TestByNameMatchesSuite: ByName builds exactly the spec Suite lists under
// each of Names, and every call returns a spec of its own.
func TestByNameMatchesSuite(t *testing.T) {
	all := Suite()
	names := Names()
	if len(names) != len(all) {
		t.Fatalf("Names() has %d entries, Suite() %d", len(names), len(all))
	}
	for i, name := range names {
		if all[i].Name != name {
			t.Fatalf("Names()[%d] = %q, Suite()[%d].Name = %q", i, name, i, all[i].Name)
		}
		s, ok := ByName(name)
		if !ok || !reflect.DeepEqual(s, all[i]) {
			t.Fatalf("ByName(%q) differs from its Suite() entry", name)
		}
		s.Objects[0].Label = "mutated"
		s.Objects = s.Objects[:1]
		if again, _ := ByName(name); !reflect.DeepEqual(again, all[i]) {
			t.Fatalf("mutating a spec from ByName(%q) changed the next call's", name)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	good := MCF()
	cases := []func(*AppSpec){
		func(s *AppSpec) { s.Name = "" },
		func(s *AppSpec) { s.ComputePerMemory = -1 },
		func(s *AppSpec) { s.Objects = nil },
		func(s *AppSpec) { s.Objects[0].SizeBytes = 32 },
		func(s *AppSpec) { s.Objects[0].WriteFrac = 1.5 },
		func(s *AppSpec) { s.Objects[0].Instances = -2 },
		func(s *AppSpec) {
			for i := range s.Objects {
				s.Objects[i].Weight = 0
			}
			s.StackWeight, s.CodeWeight, s.GlobalsWeight = 0, 0, 0
		},
	}
	for i, mutate := range cases {
		s := MCF()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
}

func TestScaledAndInputs(t *testing.T) {
	s := MCF()
	half := s.Scaled(0.5)
	if half.Objects[0].SizeBytes != s.Objects[0].SizeBytes/2 {
		t.Error("Scaled did not halve sizes")
	}
	if half.Footprint() >= s.Footprint() {
		t.Error("scaled footprint not smaller")
	}
	tiny := s.Scaled(0.0000001)
	for _, o := range tiny.Objects {
		if o.SizeBytes < 64 {
			t.Error("scaling went below one line")
		}
	}
	train := s.ForInput(Train)
	if train.Seed == s.Seed {
		t.Error("train input reuses the ref seed")
	}
	if train.Footprint() >= s.Footprint() {
		t.Error("train footprint not smaller than ref")
	}
	if ref := s.ForInput(Ref); ref.Seed != s.Seed || ref.Footprint() != s.Footprint() {
		t.Error("ref input altered the spec")
	}
	if Train.String() != "train" || Ref.String() != "ref" {
		t.Error("input names")
	}
}

func TestInstantiateAllocatesAllObjects(t *testing.T) {
	spec := GCC()
	a := heap.New(heap.Config{})
	app, err := Instantiate(spec, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	// gcc: 4 sites -> 4 names (+3 pseudo), 23 instances.
	if got := a.NameCount(); got != 7 {
		t.Errorf("names = %d, want 7 (3 pseudo + 4 sites)", got)
	}
	info, _ := a.Name(heap.FirstHeapName + 3)
	if info.Allocs != 20 {
		t.Errorf("node_pool allocs = %d, want 20 instances under one name", info.Allocs)
	}
	if app.Footprint() != spec.Footprint() {
		t.Error("footprint mismatch")
	}
	if _, ok := app.Object("symtab"); !ok {
		t.Error("symtab lookup failed")
	}
	if _, ok := app.Object("nonexistent"); ok {
		t.Error("bogus label found")
	}
}

func TestStreamInitPhaseTouchesEveryPage(t *testing.T) {
	spec := Libquantum()
	a := heap.New(heap.Config{})
	app, err := Instantiate(spec, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := app.Stream()
	pages := map[uint64]bool{}
	qreg, _ := app.Object("qreg")
	// Drain the init phase: collect stores until we see a load.
	for i := 0; i < 10_000_000; i++ {
		in, ok := s.Next()
		if !ok {
			t.Fatal("stream ended")
		}
		if in.Kind == cpu.Load {
			break
		}
		if in.Kind == cpu.Store {
			pages[in.VAddr>>12] = true
		}
	}
	for p := qreg.Base >> 12; p < (qreg.Base+qreg.Size)>>12; p++ {
		if !pages[p] {
			t.Fatalf("init phase skipped page %#x of qreg", p)
		}
	}
}

func TestStreamSteadyStateMix(t *testing.T) {
	spec := MCF()
	a := heap.New(heap.Config{})
	app, _ := Instantiate(spec, a, 0)
	s := app.Stream()
	counts := map[uint64]int{}
	var computes, mems int
	var deps int
	// Skip init.
	for {
		in, _ := s.Next()
		if in.Kind == cpu.Load {
			break
		}
	}
	for i := 0; i < 50000; i++ {
		in, ok := s.Next()
		if !ok {
			t.Fatal("stream ended")
		}
		switch in.Kind {
		case cpu.Compute:
			computes += int(in.N)
		case cpu.Load, cpu.Store:
			mems++
			counts[in.Obj]++
			if in.Kind == cpu.Load && in.DependsOnPrev {
				deps++
			}
		}
	}
	if mems == 0 || computes == 0 {
		t.Fatal("no steady-state mix")
	}
	ratio := float64(computes) / float64(mems)
	if ratio < 6 || ratio > 10 {
		t.Errorf("compute/memory ratio = %.1f, want ~8 (mcf CPM)", ratio)
	}
	if len(counts) < 5 {
		t.Errorf("only %d distinct objects accessed", len(counts))
	}
	if deps == 0 {
		t.Error("mcf produced no dependent loads")
	}
	// nodes (weight .38) should dominate arcs (.30) etc.
	nodes, _ := app.Object("nodes")
	arcs, _ := app.Object("arcs")
	if counts[uint64(nodes.Name)] <= counts[uint64(arcs.Name)] {
		t.Errorf("nodes %d <= arcs %d accesses despite higher weight",
			counts[uint64(nodes.Name)], counts[uint64(arcs.Name)])
	}
}

func TestStreamDeterministic(t *testing.T) {
	run := func() []cpu.Instr {
		a := heap.New(heap.Config{})
		app, _ := Instantiate(Milc(), a, 5)
		s := app.Stream()
		var out []cpu.Instr
		for i := 0; i < 5000; i++ {
			in, _ := s.Next()
			out = append(out, in)
		}
		return out
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, x[i], y[i])
		}
	}
}

func TestSeedSaltDifferentiatesInstances(t *testing.T) {
	a1 := heap.New(heap.Config{})
	a2 := heap.New(heap.Config{})
	app1, _ := Instantiate(GCC(), a1, 0)
	app2, _ := Instantiate(GCC(), a2, 1)
	s1, s2 := app1.Stream(), app2.Stream()
	same := 0
	for i := 0; i < 2000; i++ {
		i1, _ := s1.Next()
		i2, _ := s2.Next()
		if i1 == i2 {
			same++
		}
	}
	// Init phases are identical (same layout); steady state must differ.
	if same == 2000 {
		t.Error("different salts produced identical streams")
	}
}

func TestMixes(t *testing.T) {
	mixes := Mixes()
	if len(mixes) != 10 {
		t.Fatalf("mixes = %d, want 10", len(mixes))
	}
	for _, m := range mixes {
		if len(m.Apps) != 4 {
			t.Errorf("mix %s has %d apps, want 4 (4-core system)", m.Name, len(m.Apps))
		}
		specs, err := m.Specs()
		if err != nil {
			t.Errorf("mix %s: %v", m.Name, err)
		}
		if len(specs) != len(m.Apps) {
			t.Errorf("mix %s resolved %d specs", m.Name, len(specs))
		}
	}
	sweep := ConfigSweepMixes()
	if len(sweep) != 5 {
		t.Fatalf("config sweep mixes = %d, want 5 (Figs. 14-15)", len(sweep))
	}
	if _, ok := MixByName("2L1B1N"); !ok {
		t.Error("2L1B1N missing")
	}
	if _, ok := MixByName("9Z"); ok {
		t.Error("bogus mix found")
	}
	bad := Mix{Name: "bad", Apps: []string{"nope"}}
	if _, err := bad.Specs(); err == nil {
		t.Error("unknown app in mix accepted")
	}
}

func TestFootprintsFitExperimentScale(t *testing.T) {
	// Single-app footprints must exceed the 4 MB RLDRAM module (the
	// capacity-pressure premise) and every 4-app mix must fit in the
	// 32 MB total system.
	const rldram = 4 * mb
	const total = 32 * mb
	intense := map[string]bool{"mcf": true, "milc": true, "libquantum": true, "disparity": true,
		"mser": true, "lbm": true, "tracking": true}
	for _, s := range Suite() {
		if intense[s.Name] && s.Footprint() <= rldram {
			t.Errorf("%s footprint %d <= RLDRAM module %d; no capacity pressure", s.Name, s.Footprint(), rldram)
		}
	}
	for _, m := range Mixes() {
		specs, _ := m.Specs()
		var sum uint64
		for _, s := range specs {
			sum += s.Footprint()
		}
		// Leave headroom for stack/code pages.
		if sum > total*9/10 {
			t.Errorf("mix %s footprint %d overflows the 32 MB system", m.Name, sum)
		}
	}
}

// Property: any valid spec instantiates with all accesses inside its
// objects' bounds.
func TestPropertyAccessesInBounds(t *testing.T) {
	f := func(seedRaw uint16, which uint8) bool {
		suite := Suite()
		spec := suite[int(which)%len(suite)]
		a := heap.New(heap.Config{})
		app, err := Instantiate(spec, a, uint64(seedRaw))
		if err != nil {
			return false
		}
		// Every access must land in the segment its object implies.
		s := app.Stream()
		for i := 0; i < 3000; i++ {
			in, ok := s.Next()
			if !ok {
				return false
			}
			if in.Kind == cpu.Compute {
				continue
			}
			seg := heap.SegmentOf(in.VAddr)
			switch in.Obj {
			case uint64(heap.ObjStack):
				if seg != heap.SegStack {
					return false
				}
			case uint64(heap.ObjCode):
				if seg != heap.SegCode {
					return false
				}
			case uint64(heap.ObjGlobals):
				if seg != heap.SegData {
					return false
				}
			default:
				if seg != heap.SegHeap {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestHotspotPatternSkew(t *testing.T) {
	c := newCursor(Hotspot, 0, 1<<20, 8, 0, NewRNG(5))
	inHot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		a, dep := c.next()
		if dep {
			t.Fatal("hotspot loads should be independent")
		}
		if a >= 1<<20 {
			t.Fatalf("address %d out of bounds", a)
		}
		if a < 1<<20/10 {
			inHot++
		}
	}
	frac := float64(inHot) / n
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("hot-region fraction = %.3f, want ~0.91", frac)
	}
}

func TestHotspotProbeValidates(t *testing.T) {
	spec := HotspotProbe()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	a := heap.New(heap.Config{})
	if _, err := Instantiate(spec, a, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPhasedAppShiftsWeights(t *testing.T) {
	spec := AppSpec{
		Name:             "phased",
		ComputePerMemory: 4,
		Seed:             9,
		Objects: []ObjectSpec{
			{Label: "a", Site: 1, SizeBytes: 256 * kb, Pattern: Stream, Weight: 0.5},
			{Label: "b", Site: 2, SizeBytes: 256 * kb, Pattern: Stream, Weight: 0.01},
		},
		StackWeight: 0.05,
		Phases: []PhaseSpec{
			{Items: 5000, Weights: map[string]float64{"a": 0.5, "b": 0.01}},
			{Items: 5000, Weights: map[string]float64{"a": 0.01, "b": 0.5}},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	a := heap.New(heap.Config{})
	app, err := Instantiate(spec, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	objA, _ := app.Object("a")
	objB, _ := app.Object("b")
	s := app.Stream()
	// Skip the initialization phase: it is exactly one compute + one
	// page-touch store per init op.
	for i := 0; i < 2*len(spec.Objects)*256*1024/4096+16; i++ {
		s.Next()
	}
	count := func(items int) (aHits, bHits int) {
		for i := 0; i < items; i++ {
			in, _ := s.Next()
			if in.Kind == cpu.Compute {
				continue
			}
			switch in.Obj {
			case uint64(objA.Name):
				aHits++
			case uint64(objB.Name):
				bHits++
			}
		}
		return
	}
	a1, b1 := count(8000) // mostly phase 0
	if a1 <= b1*3 {
		t.Errorf("phase 0: a=%d b=%d, expected a-dominated", a1, b1)
	}
	// Advance well into phase 1.
	for app.Phase() == 0 {
		s.Next()
	}
	a2, b2 := count(8000)
	if b2 <= a2*3 {
		t.Errorf("phase 1: a=%d b=%d, expected b-dominated", a2, b2)
	}
}

func TestPhaseValidation(t *testing.T) {
	base := AppSpec{
		Name: "p", ComputePerMemory: 4, Seed: 1,
		Objects:     []ObjectSpec{{Label: "a", Site: 1, SizeBytes: 64 * kb, Pattern: Stream, Weight: 0.5}},
		StackWeight: 0.1,
	}
	bad := base
	bad.Phases = []PhaseSpec{{Items: 0}}
	if err := bad.Validate(); err == nil {
		t.Error("zero-length phase accepted")
	}
	bad = base
	bad.Phases = []PhaseSpec{{Items: 10, Weights: map[string]float64{"zz": 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown label override accepted")
	}
	bad = base
	bad.Phases = []PhaseSpec{{Items: 10, Weights: map[string]float64{"a": -1}}}
	if err := bad.Validate(); err == nil {
		t.Error("negative phase weight accepted")
	}
	good := base
	good.Phases = []PhaseSpec{{Items: 10, Weights: map[string]float64{"a": 0.9}}}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
}
