package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"moca/internal/profile"
	"moca/internal/sim"
)

// v1Entry reads a cache entry written by the v1 format (a JSON envelope
// around the payload) and returns the raw file with its canonical key and
// payload. Both testdata files were captured from a fastRunner
// RunSingle(ddr3Def(), "mcf") before the format moved to v2.
func v1Entry(tb testing.TB, name string) (raw []byte, key string, payload []byte) {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	var env struct {
		Salt    string          `json:"salt"`
		Key     string          `json:"key"`
		Payload json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return raw, env.Key, env.Payload
}

// storedEntries writes the v1 result and profile through the current
// store path and returns the cache, the keys and the framed files.
func storedEntries(tb testing.TB, dir string) (c *RunCache, resKey, profKey string, resEntry, profEntry []byte) {
	tb.Helper()
	c, err := OpenRunCache(dir, CacheReadWrite)
	if err != nil {
		tb.Fatal(err)
	}
	_, resKey, payload := v1Entry(tb, "v1-result.json")
	res := new(sim.Result)
	if err := res.UnmarshalJSON(payload); err != nil {
		tb.Fatal(err)
	}
	if err := c.StoreResult([]byte(resKey), res); err != nil {
		tb.Fatal(err)
	}
	_, profKey, payload = v1Entry(tb, "v1-profile.json")
	pr, err := profile.Unmarshal(payload)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.StoreProfile([]byte(profKey), pr); err != nil {
		tb.Fatal(err)
	}
	if resEntry, err = os.ReadFile(c.path("result", []byte(resKey))); err != nil {
		tb.Fatal(err)
	}
	if profEntry, err = os.ReadFile(c.path("profile", []byte(profKey))); err != nil {
		tb.Fatal(err)
	}
	return c, resKey, profKey, resEntry, profEntry
}

// snapshotDir maps every file name in dir to its contents.
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		snap[e.Name()] = string(data)
	}
	return snap
}

// TestCacheEntryFraming: a stored entry is salt, key and payload on
// separate lines, and the payload is the value's own JSON encoding.
func TestCacheEntryFraming(t *testing.T) {
	c, resKey, _, entry, _ := storedEntries(t, t.TempDir())
	_, _, payload := v1Entry(t, "v1-result.json")
	want := c.salt + "\n" + resKey + "\n" + string(payload)
	if string(entry) != want {
		t.Fatalf("entry is not salt\\nkey\\npayload:\n%.200s", entry)
	}
	res, ok := c.LoadResult([]byte(resKey))
	if !ok {
		t.Fatal("stored entry did not load")
	}
	again, err := res.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, payload) {
		t.Error("loaded result re-encodes differently from its payload")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("Hits=%d Misses=%d, want 1/0", st.Hits, st.Misses)
	}
}

// TestCacheStoreRefusesNewline: a newline in the salt or key would break
// the framing, so store refuses it and writes nothing.
func TestCacheStoreRefusesNewline(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir, CacheReadWrite)
	if err := c.StoreResult([]byte("a\nb"), &sim.Result{Name: "x"}); err == nil {
		t.Error("key with a newline was stored")
	}
	c.salt = "moca-cache-v2\n"
	if err := c.StoreProfile([]byte("k"), profile.Profile{}); err == nil {
		t.Error("salt with a newline was stored")
	}
	if snap := snapshotDir(t, dir); len(snap) != 0 {
		t.Errorf("refused stores left %d files", len(snap))
	}
	if st := c.Stats(); st.Writes != 0 {
		t.Errorf("Writes=%d, want 0", st.Writes)
	}
}

// TestCacheTruncatedEntriesNeverHit: every proper prefix of a stored
// result or profile entry — what a torn write can leave — loads as a miss.
// Read mode leaves the prefix on disk; read-write mode evicts it.
func TestCacheTruncatedEntriesNeverHit(t *testing.T) {
	dir := t.TempDir()
	rw, resKey, profKey, resEntry, profEntry := storedEntries(t, dir)
	ro := openCache(t, dir, CacheRead)
	cases := []struct {
		kind, key string
		entry     []byte
		load      func(c *RunCache, key string) bool
	}{
		{"result", resKey, resEntry, func(c *RunCache, key string) bool { _, ok := c.LoadResult([]byte(key)); return ok }},
		{"profile", profKey, profEntry, func(c *RunCache, key string) bool { _, ok := c.LoadProfile([]byte(key)); return ok }},
	}
	for _, tc := range cases {
		path := rw.path(tc.kind, []byte(tc.key))
		for n := 0; n < len(tc.entry); n++ {
			if err := os.WriteFile(path, tc.entry[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.load(ro, tc.key) {
				t.Fatalf("%s prefix of %d/%d bytes hit in read mode", tc.kind, n, len(tc.entry))
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("read mode removed the %s prefix of %d bytes: %v", tc.kind, n, err)
			}
			if tc.load(rw, tc.key) {
				t.Fatalf("%s prefix of %d/%d bytes hit in read-write mode", tc.kind, n, len(tc.entry))
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("%s prefix of %d bytes not evicted (err=%v)", tc.kind, n, err)
			}
		}
	}
	total := uint64(len(resEntry) + len(profEntry))
	if st := ro.Stats(); st.Hits != 0 || st.Misses != total || st.Evictions != 0 {
		t.Errorf("read mode: Hits=%d Misses=%d Evictions=%d, want 0/%d/0", st.Hits, st.Misses, st.Evictions, total)
	}
	if st := rw.Stats(); st.Hits != 0 || st.Misses != total || st.Evictions != total {
		t.Errorf("read-write mode: Hits=%d Misses=%d Evictions=%d, want 0/%d/%d", st.Hits, st.Misses, st.Evictions, total, total)
	}
}

// TestCacheV1EntriesRecomputed: a cache directory written by the v1
// format is never served. Each v1 entry fails framing on its own slot, is
// evicted, recomputed and rewritten in the current framing.
func TestCacheV1EntriesRecomputed(t *testing.T) {
	dir := t.TempDir()
	r1 := fastRunner()
	r1.Cache = openCache(t, dir, CacheReadWrite)
	want, err := r1.RunSingle(ddr3Def(), "mcf")
	if err != nil {
		t.Fatal(err)
	}
	// Put the v1 files into the slots the run just filled.
	for name := range snapshotDir(t, dir) {
		v1 := "v1-result.json"
		if strings.HasPrefix(name, "profile-") {
			v1 = "v1-profile.json"
		}
		raw, _, _ := v1Entry(t, v1)
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r2 := fastRunner()
	c2 := openCache(t, dir, CacheReadWrite)
	r2.Cache = c2
	got, err := r2.RunSingle(ddr3Def(), "mcf")
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Simulated != 1 || st.Profiled != 1 || st.DiskHits != 0 || st.ProfileDiskHits != 0 {
		t.Errorf("v1 cache: Simulated=%d Profiled=%d DiskHits=%d ProfileDiskHits=%d, want 1/1/0/0",
			st.Simulated, st.Profiled, st.DiskHits, st.ProfileDiskHits)
	}
	if st := c2.Stats(); st.Hits != 0 || st.Evictions != 2 || st.Writes != 2 {
		t.Errorf("v1 cache: Hits=%d Evictions=%d Writes=%d, want 0/2/2", st.Hits, st.Evictions, st.Writes)
	}
	a, _ := want.MarshalJSON()
	b, _ := got.MarshalJSON()
	if !bytes.Equal(a, b) {
		t.Error("recomputed result differs from the original run")
	}
	for name, data := range snapshotDir(t, dir) {
		if !strings.HasPrefix(data, c2.salt+"\n") {
			t.Errorf("%s was not rewritten in the current framing: %.40q", name, data)
		}
	}

	r3 := fastRunner()
	r3.Cache = openCache(t, dir, CacheRead)
	if _, err := r3.RunSingle(ddr3Def(), "mcf"); err != nil {
		t.Fatal(err)
	}
	if st := r3.Stats(); st.DiskHits != 1 || st.ProfileDiskHits != 1 || st.Simulated != 0 {
		t.Errorf("rewritten cache: DiskHits=%d ProfileDiskHits=%d Simulated=%d, want 1/1/0",
			st.DiskHits, st.ProfileDiskHits, st.Simulated)
	}
}

// FuzzRunCacheEntry: whatever bytes sit in a result slot, loading never
// panics, a hit implies the file begins with exactly salt\nkey\n, and a
// correctly framed payload hits exactly when encoding/json decodes it, to
// the same Result.
// The seeds are whole ~5 KiB entries, so minimizing every new input
// stalls the fuzzer; run it with -fuzzminimizetime=0.
func FuzzRunCacheEntry(f *testing.F) {
	_, key, _, valid, _ := storedEntries(f, f.TempDir())
	v1, _, _ := v1Entry(f, "v1-result.json")
	salt := defaultCacheSalt()
	f.Add(valid)
	f.Add(v1)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(salt + "\n" + key[:10] + "\n" + string(valid[len(salt)+11:])))
	// Another key's valid entry in this slot, as a hash collision would be.
	f.Add(bytes.Replace(valid, []byte(`"kind":"result"`), []byte(`"kind":"resulT"`), 1))
	head := []byte(salt + "\n" + key + "\n")
	f.Add(append(append([]byte(nil), head...), "null"...))
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, valid[len(head):], "", " "); err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte(nil), head...), spaced.Bytes()...))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		c := openCache(t, dir, CacheReadWrite)
		if err := os.WriteFile(c.path("result", []byte(key)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, ok := c.LoadResult([]byte(key))
		st := c.Stats()
		if payload, framed := bytes.CutPrefix(data, head); framed {
			// A leading space sends the reference decode down the
			// encoding/json path, whatever the canonical decoder would do.
			var want sim.Result
			refErr := want.UnmarshalJSON(append([]byte(" "), payload...))
			if ok != (refErr == nil) {
				t.Fatalf("hit=%v but encoding/json decode error %v: %.80q", ok, refErr, payload)
			}
			if ok && !reflect.DeepEqual(*res, want) {
				t.Fatalf("loaded result differs from encoding/json's decode of %.80q", payload)
			}
		}
		if ok {
			if res == nil || !bytes.HasPrefix(data, head) {
				t.Fatalf("hit on an entry without the salt\\nkey\\n frame: %.80q", data)
			}
			if st.Hits != 1 || st.Misses != 0 {
				t.Fatalf("hit counted as Hits=%d Misses=%d", st.Hits, st.Misses)
			}
			return
		}
		if st.Hits != 0 || st.Misses != 1 || st.Evictions != 1 {
			t.Fatalf("miss counted as Hits=%d Misses=%d Evictions=%d", st.Hits, st.Misses, st.Evictions)
		}
	})
}

// TestLoadedResultOutlivesEntryBuffer: entries are read into pooled
// buffers, so loading result B may overwrite the bytes result A was
// decoded from. A must not alias them: it still re-encodes to its stored
// payload after B's loads.
func TestLoadedResultOutlivesEntryBuffer(t *testing.T) {
	c, keyA, _, _, _ := storedEntries(t, t.TempDir())
	_, _, payloadA := v1Entry(t, "v1-result.json")
	a, ok := c.LoadResult([]byte(keyA))
	if !ok {
		t.Fatal("result A missed")
	}
	b := new(sim.Result)
	if err := b.UnmarshalJSON(payloadA); err != nil {
		t.Fatal(err)
	}
	// B differs from A in every string, at the same offsets.
	b.Name = strings.Repeat("b", len(b.Name))
	for i := range b.Cores {
		b.Cores[i].App = strings.Repeat("b", len(b.Cores[i].App))
	}
	keyB := []byte(keyA)
	keyB[0] = '['
	if err := c.StoreResult(keyB, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if got, ok := c.LoadResult(keyB); !ok || got.Name != b.Name {
			t.Fatal("result B did not load")
		}
	}
	again, err := a.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, payloadA) {
		t.Errorf("result A changed after B was loaded through the same buffers:\n%.200s", again)
	}
}

// TestRunCacheLoadAllocBudget is the CI bench smoke for the disk-hit path:
// BenchmarkRunCacheLoadResult may allocate no more per op than its
// BENCH_throughput.json micro entry records. Skipped unless
// MOCA_BENCH_SMOKE=1.
func TestRunCacheLoadAllocBudget(t *testing.T) {
	if os.Getenv("MOCA_BENCH_SMOKE") == "" {
		t.Skip("set MOCA_BENCH_SMOKE=1 to run the bench smoke")
	}
	data, err := os.ReadFile("../../BENCH_throughput.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Micro map[string]struct {
			AllocsPerOp int64 `json:"allocs_per_op"`
		} `json:"micro"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	m, ok := f.Micro["BenchmarkRunCacheLoadResult"]
	if !ok {
		t.Fatal("BENCH_throughput.json has no micro entry BenchmarkRunCacheLoadResult")
	}
	res := testing.Benchmark(BenchmarkRunCacheLoadResult)
	t.Logf("allocs/op: measured %d, budget %d", res.AllocsPerOp(), m.AllocsPerOp)
	if allocs := res.AllocsPerOp(); allocs > m.AllocsPerOp {
		t.Fatalf("disk hit allocates %d allocs/op, budget %d; if intentional, update the micro entry in BENCH_throughput.json",
			allocs, m.AllocsPerOp)
	}
}

// BenchmarkRunCacheLoadResult: one disk hit — read, frame check and
// decode of a stored result — in the steady state, where the entry
// buffer comes from the pool.
func BenchmarkRunCacheLoadResult(b *testing.B) {
	c, skey, _, _, _ := storedEntries(b, b.TempDir())
	key := []byte(skey)
	if _, ok := c.LoadResult(key); !ok {
		b.Fatal("stored result missed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.LoadResult(key); !ok {
			b.Fatal("stored result missed")
		}
	}
}

// BenchmarkRunCacheWarmHeadline: one warm pass of the paper's headline
// sweep at 100k-instruction windows, by a fresh Runner reading the cache
// in read mode. The cold pass that fills the cache runs untimed before
// each measured loop.
func BenchmarkRunCacheWarmHeadline(b *testing.B) {
	dir := b.TempDir()
	runner := func(mode CacheMode) *Runner {
		r := NewRunner()
		r.Measure = 100_000
		r.FW.ProfileWindow = 100_000
		r.Parallelism = runtime.NumCPU()
		c, err := OpenRunCache(dir, mode)
		if err != nil {
			b.Fatal(err)
		}
		r.Cache = c
		return r
	}
	if _, _, err := runner(CacheReadWrite).Headline(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := runner(CacheRead)
		if _, _, err := r.Headline(); err != nil {
			b.Fatal(err)
		}
		if st := r.Stats(); st.Simulated != 0 || st.Profiled != 0 {
			b.Fatalf("warm pass simulated %d runs and profiled %d apps", st.Simulated, st.Profiled)
		}
	}
}

// TestCacheNullPayloadMisses: an entry whose payload is null — valid
// JSON, but no result or profile — is a miss, never a zero-valued hit.
// Read mode leaves it on disk; read-write mode evicts it.
func TestCacheNullPayloadMisses(t *testing.T) {
	dir := t.TempDir()
	rw, resKey, profKey, _, _ := storedEntries(t, dir)
	ro := openCache(t, dir, CacheRead)
	for _, tc := range []struct {
		kind, key string
		load      func(c *RunCache, key string) bool
	}{
		{"result", resKey, func(c *RunCache, key string) bool { _, ok := c.LoadResult([]byte(key)); return ok }},
		{"profile", profKey, func(c *RunCache, key string) bool { _, ok := c.LoadProfile([]byte(key)); return ok }},
	} {
		path := rw.path(tc.kind, []byte(tc.key))
		if err := os.WriteFile(path, []byte(rw.salt+"\n"+tc.key+"\nnull"), 0o644); err != nil {
			t.Fatal(err)
		}
		if tc.load(ro, tc.key) {
			t.Errorf("null %s payload hit in read mode", tc.kind)
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("read mode removed the null %s entry: %v", tc.kind, err)
		}
		if tc.load(rw, tc.key) {
			t.Errorf("null %s payload hit in read-write mode", tc.kind)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("null %s entry not evicted (err=%v)", tc.kind, err)
		}
	}
	if st := ro.Stats(); st.Hits != 0 || st.Misses != 2 || st.Evictions != 0 {
		t.Errorf("read mode: Hits=%d Misses=%d Evictions=%d, want 0/2/0", st.Hits, st.Misses, st.Evictions)
	}
	if st := rw.Stats(); st.Hits != 0 || st.Misses != 2 || st.Evictions != 2 {
		t.Errorf("read-write mode: Hits=%d Misses=%d Evictions=%d, want 0/2/2", st.Hits, st.Misses, st.Evictions)
	}
}
