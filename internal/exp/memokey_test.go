package exp

import (
	"bytes"
	"testing"
)

// TestMemoKeySeparatesCapacityConfigs: SystemByName names moca and
// moca@config2 both "moca", so a memo keyed by name served the config1
// result for a config2 request. The second run must be its own
// simulation, equal to the same run on a fresh runner, and keep the
// presentational name.
func TestMemoKeySeparatesCapacityConfigs(t *testing.T) {
	newRunner := func() *Runner {
		r := NewRunner()
		r.Measure = 20_000
		r.FW.ProfileWindow = 100_000
		return r
	}
	c1, err := SystemByName("moca")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := SystemByName("moca@config2")
	if err != nil {
		t.Fatal(err)
	}
	if MemoKey(c1, "single/mcf") == MemoKey(c2, "single/mcf") {
		t.Fatalf("moca and moca@config2 share the memo key %q", MemoKey(c1, "single/mcf"))
	}

	r := newRunner()
	a, err := r.RunSingle(c1, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunSingle(c2, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("moca@config2 was served the moca (config1) result")
	}
	if st := r.Stats(); st.MemoryHits != 0 || st.Simulated != 2 {
		t.Fatalf("memory hits %d, simulated %d; want 0 and 2", st.MemoryHits, st.Simulated)
	}
	if b.Name != "moca" {
		t.Errorf("config2 result named %q, want %q", b.Name, "moca")
	}
	if again, err := r.RunSingle(c2, "mcf"); err != nil || again != b {
		t.Fatalf("repeat config2 run: %p, %v; want the memoized %p", again, err, b)
	}

	fresh, err := newRunner().RunSingle(c2, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := b.MarshalJSON()
	want, _ := fresh.MarshalJSON()
	if !bytes.Equal(got, want) {
		t.Errorf("memoized config2 result differs from a fresh config2 run:\nmemo  %s\nfresh %s", got, want)
	}
	if a.AvgMemAccessTime() == b.AvgMemAccessTime() {
		t.Errorf("config1 and config2 give the same amat %d ps; the test no longer tells them apart", a.AvgMemAccessTime())
	}
}

// TestMemoizedReadsOnlyTheMemo: Memoized misses until a run is memoized,
// then returns the memo's result and counts the memory hit a repeated run
// would count; it never simulates.
func TestMemoizedReadsOnlyTheMemo(t *testing.T) {
	r := NewRunner()
	r.Measure = 20_000
	def, err := SystemByName("ddr3")
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := r.Memoized(def, "single/mcf"); ok || res != nil {
		t.Fatalf("Memoized before any run = %p, %v; want a miss", res, ok)
	}
	if st := r.Stats(); st != (RunnerStats{}) {
		t.Fatalf("a memo miss changed the stats: %+v", st)
	}
	first, err := r.RunSingle(def, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	res, ok := r.Memoized(def, "single/mcf")
	if !ok || res != first {
		t.Fatalf("Memoized after the run = %p, %v; want the memoized %p", res, ok, first)
	}
	if _, ok := r.Memoized(def, "single/lbm"); ok {
		t.Fatal("Memoized hit a run that never ran")
	}
	if st := r.Stats(); st.MemoryHits != 1 || st.Simulated != 1 {
		t.Fatalf("memory hits %d, simulated %d; want 1 and 1", st.MemoryHits, st.Simulated)
	}
}
