package profile

import (
	"math"
	"testing"

	"moca/internal/classify"
	"moca/internal/heap"
)

// buildNames allocates a few objects and returns the allocator.
func buildNames(t *testing.T) (*heap.Allocator, []*heap.Object) {
	t.Helper()
	a := heap.New(heap.Config{})
	var objs []*heap.Object
	for i, spec := range []struct {
		size  uint64
		site  heap.Site
		label string
	}{
		{1 << 20, 100, "hot"},
		{1 << 16, 200, "warm"},
		{1 << 10, 300, "cold"},
	} {
		o, err := a.Alloc(spec.size, spec.site, nil, spec.label)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		objs = append(objs, o)
	}
	return a, objs
}

func TestSnapshotMetricsAndClassification(t *testing.T) {
	a, objs := buildNames(t)
	p := New()
	p.OnRetire(1_000_000) // 1M instructions

	// hot: 50k misses, pointer-chase (300 cycles per miss) -> L.
	for i := 0; i < 50_000; i++ {
		p.OnLLCMiss(uint64(objs[0].Name))
	}
	p.OnMemLoadRetire(uint64(objs[0].Name), 300)
	for i := 1; i < 50_000; i++ {
		p.OnMemLoadRetire(uint64(objs[0].Name), 300)
	}
	// warm: 20k misses, high MLP (5 cycles per miss) -> B.
	for i := 0; i < 20_000; i++ {
		p.OnLLCMiss(uint64(objs[1].Name))
		p.OnMemLoadRetire(uint64(objs[1].Name), 5)
	}
	// cold: 100 misses -> N.
	for i := 0; i < 100; i++ {
		p.OnLLCMiss(uint64(objs[2].Name))
		p.OnMemLoadRetire(uint64(objs[2].Name), 400)
	}

	pr := p.Snapshot("testapp", a.Names(), classify.DefaultThresholds())
	if pr.App != "testapp" || pr.Instructions != 1_000_000 {
		t.Fatalf("profile header %+v", pr)
	}
	if len(pr.Objects) != 6 { // 3 pseudo + 3 heap
		t.Fatalf("objects = %d, want 6", len(pr.Objects))
	}
	// Ordered by misses: hot first.
	if pr.Objects[0].Label != "hot" || pr.Objects[1].Label != "warm" {
		t.Errorf("ordering: %s, %s", pr.Objects[0].Label, pr.Objects[1].Label)
	}

	hot, ok := pr.Object(objs[0].Key)
	if !ok {
		t.Fatal("hot object missing")
	}
	if math.Abs(hot.MPKI-50.0) > 1e-9 {
		t.Errorf("hot MPKI = %v, want 50", hot.MPKI)
	}
	if math.Abs(hot.StallPerMiss-300) > 1e-9 {
		t.Errorf("hot stall/miss = %v", hot.StallPerMiss)
	}
	if hot.Class != classify.LatencySensitive {
		t.Errorf("hot class = %v, want L", hot.Class)
	}
	warm, _ := pr.Object(objs[1].Key)
	if warm.Class != classify.BandwidthSensitive {
		t.Errorf("warm class = %v, want B", warm.Class)
	}
	cold, _ := pr.Object(objs[2].Key)
	if cold.Class != classify.NonIntensive {
		t.Errorf("cold class = %v, want N", cold.Class)
	}
	if cold.MPKI != 0.1 {
		t.Errorf("cold MPKI = %v, want 0.1", cold.MPKI)
	}
	if hot.SizeBytes != 1<<20 {
		t.Errorf("hot size = %d", hot.SizeBytes)
	}
}

func TestClassMapExcludesPseudoObjects(t *testing.T) {
	a, objs := buildNames(t)
	p := New()
	p.OnRetire(1000)
	pr := p.Snapshot("x", a.Names(), classify.DefaultThresholds())
	cm := pr.ClassMap()
	if len(cm) != 3 {
		t.Fatalf("class map has %d entries, want 3 heap objects", len(cm))
	}
	for _, o := range objs {
		if _, ok := cm[o.Key]; !ok {
			t.Errorf("object %v missing from class map", o.Key)
		}
	}
}

func TestAppMetricsAggregation(t *testing.T) {
	a, objs := buildNames(t)
	p := New()
	p.OnRetire(100_000)
	for i := 0; i < 1000; i++ {
		p.OnLLCMiss(uint64(objs[0].Name))
		p.OnMemLoadRetire(uint64(objs[0].Name), 100)
	}
	for i := 0; i < 1000; i++ {
		p.OnLLCMiss(uint64(objs[1].Name))
		p.OnMemLoadRetire(uint64(objs[1].Name), 10)
	}
	pr := p.Snapshot("x", a.Names(), classify.DefaultThresholds())
	m := pr.AppMetrics()
	if math.Abs(m.MPKI-20.0) > 1e-9 {
		t.Errorf("app MPKI = %v, want 20", m.MPKI)
	}
	if math.Abs(m.StallPerMiss-55.0) > 1e-9 {
		t.Errorf("app stall/miss = %v, want 55", m.StallPerMiss)
	}
	if pr.AppClass() != classify.LatencySensitive {
		t.Errorf("app class = %v, want L", pr.AppClass())
	}
}

func TestHeapObjectsFilter(t *testing.T) {
	a, _ := buildNames(t)
	p := New()
	pr := p.Snapshot("x", a.Names(), classify.DefaultThresholds())
	hs := pr.HeapObjects()
	if len(hs) != 3 {
		t.Fatalf("heap objects = %d, want 3", len(hs))
	}
	for _, o := range hs {
		if o.ID < heap.FirstHeapName {
			t.Errorf("pseudo-object %d leaked into heap objects", o.ID)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	a, _ := buildNames(t)
	p := New()
	p.OnRetire(500)
	p.OnLLCMiss(3)
	pr := p.Snapshot("roundtrip", a.Names(), classify.DefaultThresholds())
	data, err := pr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.App != pr.App || back.Instructions != pr.Instructions || len(back.Objects) != len(pr.Objects) {
		t.Errorf("round trip mismatch: %+v vs %+v", back, pr)
	}
	if back.Objects[0].Key != pr.Objects[0].Key {
		t.Error("object keys did not survive round trip")
	}
	if _, err := Unmarshal([]byte("{bad")); err == nil {
		t.Error("bad JSON accepted")
	}
}

// TestUnmarshalRejectsNonObject: a null (or any non-object) profile is an
// error, not a profile with no objects.
func TestUnmarshalRejectsNonObject(t *testing.T) {
	for _, doc := range []string{"null", " null", "[]", `"p"`, "0", ""} {
		if _, err := Unmarshal([]byte(doc)); err == nil {
			t.Errorf("Unmarshal(%q) accepted a non-object", doc)
		}
	}
}

func TestMergeWeighted(t *testing.T) {
	a, objs := buildNames(t)
	th := classify.DefaultThresholds()

	p1 := New()
	p1.OnRetire(1000)
	for i := 0; i < 100; i++ {
		p1.OnLLCMiss(uint64(objs[0].Name)) // MPKI 100 in simpoint 1
		p1.OnMemLoadRetire(uint64(objs[0].Name), 200)
	}
	pr1 := p1.Snapshot("app", a.Names(), th)

	p2 := New()
	p2.OnRetire(1000) // object idle in simpoint 2
	pr2 := p2.Snapshot("app", a.Names(), th)

	merged, err := Merge([]Profile{pr1, pr2}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := merged.Object(objs[0].Key)
	if !ok {
		t.Fatal("object lost in merge")
	}
	// Weighted MPKI: (1*100 + 3*0)/4 = 25.
	if math.Abs(got.MPKI-25.0) > 1e-9 {
		t.Errorf("merged MPKI = %v, want 25", got.MPKI)
	}
	if got.LLCMisses != 100 {
		t.Errorf("merged misses = %d, want 100 (raw sum)", got.LLCMisses)
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := Merge(nil, nil); err == nil {
		t.Error("empty merge accepted")
	}
	a, _ := buildNames(t)
	pr := New().Snapshot("x", a.Names(), classify.DefaultThresholds())
	if _, err := Merge([]Profile{pr}, []float64{1, 2}); err == nil {
		t.Error("weight count mismatch accepted")
	}
	if _, err := Merge([]Profile{pr}, []float64{-1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := Merge([]Profile{pr}, []float64{0}); err == nil {
		t.Error("zero total weight accepted")
	}
}

func TestObjectLookupMiss(t *testing.T) {
	a, _ := buildNames(t)
	pr := New().Snapshot("x", a.Names(), classify.DefaultThresholds())
	if _, ok := pr.Object(heap.NameKey(0xdeadbeef)); ok {
		t.Error("lookup of unknown key succeeded")
	}
}
