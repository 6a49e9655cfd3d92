package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"moca/internal/cpu"
	"moca/internal/heap"
	"moca/internal/trace"
	"moca/internal/workload"
)

// replayRunner is the runner the replay tests compare: short windows, so
// a Heter-App replay's profiling run stays cheap.
func replayRunner() *Runner {
	r := NewRunner()
	r.Measure = 20_000
	r.FW.ProfileWindow = 50_000
	return r
}

// refRecording returns items stream items of app's ref-input generator as
// a v2 block trace, recorded on an unclassified heap as moca-trace record
// records it.
func refRecording(t *testing.T, app string, items uint64) []byte {
	t.Helper()
	spec, ok := workload.ByName(app)
	if !ok {
		t.Fatalf("unknown app %q", app)
	}
	inst, err := workload.Instantiate(spec.ForInput(workload.Ref), heap.New(heap.Config{}), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bw, err := trace.NewBlockWriterSize(&buf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Record(bw, inst.Stream(), items); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayOf replays data, a recording of app, on def through r.
func replayOf(t *testing.T, r *Runner, def SystemDef, app string, data []byte) ([]byte, error) {
	t.Helper()
	stream, err := trace.NewBlockReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Replay(context.Background(), def, app, stream)
	if err != nil {
		return nil, err
	}
	return res.MarshalJSON()
}

// TestReplayMatchesRunSingle: a replay of an app's ref recording is
// RunSingle's run of the app, byte for byte, under Fixed, Migrate and
// Heter-App. A Heter-App replay profiles the app as RunSingle does; a
// Fixed or Migrate run and its replay profile nothing.
func TestReplayMatchesRunSingle(t *testing.T) {
	for _, app := range []string{"mcf", "lbm"} {
		data := refRecording(t, app, 400_000)
		gen := replayRunner()
		for _, name := range []string{"ddr3", "migrate", "heter-app", "heter-app@config2"} {
			def, err := SystemByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := gen.RunSingle(def, app)
			if err != nil {
				t.Fatal(err)
			}
			want, err := res.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			r := replayRunner()
			got, err := replayOf(t, r, def, app, data)
			if err != nil {
				t.Fatalf("%s on %s: %v", app, name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s on %s: the replay differs from RunSingle", app, name)
			}
			wantProfiled := uint64(0)
			if readsInstr(def.Policy) {
				wantProfiled = 1
			}
			if st := r.Stats(); st.Profiled != wantProfiled || st.Simulated != 1 {
				t.Errorf("%s on %s: the replay profiled %d and simulated %d runs, want %d and 1", app, name, st.Profiled, st.Simulated, wantProfiled)
			}
		}
	}
}

// TestReplayBypassesCaches: a replay is never served from the memo or the
// RunCache and never stored in either, even when its generated run is.
// Its Heter-App profile is the only entry it may write.
func TestReplayBypassesCaches(t *testing.T) {
	data := refRecording(t, "mcf", 400_000)
	dir := t.TempDir()
	r := replayRunner()
	r.Cache = openCache(t, dir, CacheReadWrite)
	for _, def := range []SystemDef{ddr3Def(), heterAppDef()} {
		if _, err := replayOf(t, r, def, "mcf", data); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range cacheFiles(t, dir) {
		if !strings.HasPrefix(name, "profile-") {
			t.Errorf("a replay stored %s", name)
		}
	}
	if n := len(r.Results()); n != 0 {
		t.Errorf("replays left %d results in the memo", n)
	}

	// With the generated runs memoized and stored, replays still simulate.
	for _, def := range []SystemDef{ddr3Def(), heterAppDef()} {
		if _, err := r.RunSingle(def, "mcf"); err != nil {
			t.Fatal(err)
		}
		if _, err := replayOf(t, r, def, "mcf", data); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.Simulated != 6 || st.DiskHits != 0 || st.MemoryHits != 0 {
		t.Errorf("Simulated=%d DiskHits=%d MemoryHits=%d, want 6/0/0", st.Simulated, st.DiskHits, st.MemoryHits)
	}
	if st := r.Cache.Stats(); st.Hits != 0 || st.Writes != 3 {
		t.Errorf("cache Hits=%d Writes=%d, want 0 and 3 (the profile and two generated results)", st.Hits, st.Writes)
	}
}

// TestFixedAndMigrateProfileNothing: a Fixed or Migrate run neither
// profiles its apps nor reads a profile from the RunCache, cold or warm.
func TestFixedAndMigrateProfileNothing(t *testing.T) {
	dir := t.TempDir()
	migrate, err := SystemByName("migrate")
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"cold", "warm"} {
		r := replayRunner()
		r.Cache = openCache(t, dir, CacheReadWrite)
		for _, def := range []SystemDef{ddr3Def(), migrate} {
			if _, err := r.RunSingle(def, "mcf"); err != nil {
				t.Fatal(err)
			}
			if _, err := r.RunMix(def, workload.Mixes()[0]); err != nil {
				t.Fatal(err)
			}
		}
		if st := r.Stats(); st.Profiled != 0 || st.ProfileDiskHits != 0 {
			t.Errorf("%s: Profiled=%d ProfileDiskHits=%d, want 0/0", pass, st.Profiled, st.ProfileDiskHits)
		}
	}
	for _, name := range cacheFiles(t, dir) {
		if strings.HasPrefix(name, "profile-") {
			t.Errorf("a Fixed or Migrate run stored %s", name)
		}
	}
}

// unreadStream fails the test if a refused replay reads it.
type unreadStream struct{ t *testing.T }

func (s unreadStream) Next() (cpu.Instr, bool) {
	s.t.Error("a refused replay read its stream")
	return cpu.Instr{}, false
}

// TestReplayRefusesMOCA: a MOCA replay is refused before anything is
// profiled, simulated or read, with an error that says why.
func TestReplayRefusesMOCA(t *testing.T) {
	for _, name := range []string{"moca", "moca@config3"} {
		def, err := SystemByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r := replayRunner()
		if _, err := r.Replay(context.Background(), def, "mcf", unreadStream{t}); err == nil || !strings.Contains(err.Error(), "class map") {
			t.Errorf("%s: Replay returned %v, want a refusal naming the class map", name, err)
		}
		if st := r.Stats(); st.Profiled != 0 || st.Simulated != 0 {
			t.Errorf("%s: a refused replay profiled %d and simulated %d runs", name, st.Profiled, st.Simulated)
		}
	}
}
