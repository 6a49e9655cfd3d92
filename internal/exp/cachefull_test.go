package exp

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"moca/internal/sim"
)

// swapWriteTemp replaces the temp-file write seam for one test and
// restores it afterwards.
func swapWriteTemp(t *testing.T, fn func(*os.File, []byte) (int, error)) {
	t.Helper()
	orig := writeTemp
	writeTemp = fn
	t.Cleanup(func() { writeTemp = orig })
}

// fullDisk returns a temp-file write that fails as a full disk does for
// entries of the given kind: half the bytes land, then ENOSPC. Other
// kinds are written normally.
func fullDisk(kind string) func(*os.File, []byte) (int, error) {
	return func(f *os.File, b []byte) (int, error) {
		if !strings.HasPrefix(filepath.Base(f.Name()), "."+kind+"-") {
			return f.Write(b)
		}
		n, _ := f.Write(b[:len(b)/2])
		return n, &os.PathError{Op: "write", Path: f.Name(), Err: syscall.ENOSPC}
	}
}

// cacheFiles lists the names in a cache directory.
func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestStoreOnFullDisk: a store whose temp-file write fails with ENOSPC
// returns that error and leaves nothing behind — no temp file, no entry,
// no counted write — so the next load misses and a retried store on the
// same key succeeds.
func TestStoreOnFullDisk(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir, CacheReadWrite)
	_, key, payload := v1Entry(t, "v1-result.json")
	res := new(sim.Result)
	if err := res.UnmarshalJSON(payload); err != nil {
		t.Fatal(err)
	}

	orig := writeTemp
	swapWriteTemp(t, fullDisk("result"))
	err := c.StoreResult([]byte(key), res)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("store on a full disk returned %v, want an error wrapping ENOSPC", err)
	}
	if names := cacheFiles(t, dir); len(names) != 0 {
		t.Errorf("failed store left %q in the cache", names)
	}
	if st := c.Stats(); st.Writes != 0 {
		t.Errorf("failed store counted %d writes", st.Writes)
	}
	if _, ok := c.LoadResult([]byte(key)); ok {
		t.Fatal("failed store's key hit")
	}

	writeTemp = orig
	if err := c.StoreResult([]byte(key), res); err != nil {
		t.Fatalf("retried store: %v", err)
	}
	got, ok := c.LoadResult([]byte(key))
	if !ok {
		t.Fatal("retried store's key missed")
	}
	gotJSON, _ := got.MarshalJSON()
	if want, _ := res.MarshalJSON(); string(gotJSON) != string(want) {
		t.Error("retried store returned a different result")
	}
	if st := c.Stats(); st.Writes != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("Writes=%d Hits=%d Misses=%d, want 1/1/1", st.Writes, st.Hits, st.Misses)
	}
}

// TestRunnerStoreFailureRetryable: a run whose result cannot be stored
// fails with the store's error, publishes nothing to the memo, and runs
// again on the next request.
func TestRunnerStoreFailureRetryable(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner()
	r.Measure = 20_000
	r.FW.ProfileWindow = 100_000
	r.Cache = openCache(t, dir, CacheReadWrite)
	def := heterAppDef()

	orig := writeTemp
	swapWriteTemp(t, fullDisk("result"))
	if _, err := r.RunSingle(def, "mcf"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("run on a full disk returned %v, want an error wrapping ENOSPC", err)
	}
	if _, ok := r.Results()[MemoKey(def, "single/mcf")]; ok {
		t.Fatal("failed run was published to the memo")
	}
	for _, name := range cacheFiles(t, dir) {
		if !strings.HasPrefix(name, "profile-") {
			t.Errorf("failed run left %q in the cache", name)
		}
	}

	writeTemp = orig
	res, err := r.RunSingle(def, "mcf")
	if err != nil {
		t.Fatalf("retried run: %v", err)
	}
	if st := r.Stats(); st.Simulated != 2 || st.MemoryHits != 0 {
		t.Errorf("Simulated=%d MemoryHits=%d, want 2/0", st.Simulated, st.MemoryHits)
	}
	if again, err := r.RunSingle(def, "mcf"); err != nil || again != res {
		t.Errorf("third request: %p, %v; want the memoized %p", again, err, res)
	}
	if st := r.Cache.Stats(); st.Writes != 2 {
		t.Errorf("cache Writes=%d, want 2 (the profile and the retried result)", st.Writes)
	}
}
