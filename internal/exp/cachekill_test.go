package exp

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"moca/internal/event"
	"moca/internal/sim"
)

// killedWriterChild is the argument that turns a re-executed test binary
// into the writer TestCacheSurvivesKilledWriter kills.
const killedWriterChild = "killed-writer-child"

// killedWriterReady is how many entries the writer stores before it tells
// the parent it is mid-loop.
const killedWriterReady = 8

// killedWriterKey and killedWriterResult derive a distinct key and result
// for entry i, so the reader can tell exactly what was stored under a key.
func killedWriterKey(i int) string { return fmt.Sprintf("killed-writer/%d", i) }

func killedWriterResult(tb testing.TB, i int) *sim.Result {
	_, _, payload := v1Entry(tb, "v1-result.json")
	res := new(sim.Result)
	if err := res.UnmarshalJSON(payload); err != nil {
		tb.Fatal(err)
	}
	res.Name = killedWriterKey(i)
	res.Elapsed = event.Time(i+1) * event.Microsecond
	return res
}

// runKilledWriterChild stores entries from start onward until it is
// killed, announcing on stdout once killedWriterReady of them are durable.
func runKilledWriterChild(t *testing.T, dir string, start int) {
	c := openCache(t, dir, CacheReadWrite)
	for i := start; ; i++ {
		if err := c.StoreResult([]byte(killedWriterKey(i)), killedWriterResult(t, i)); err != nil {
			t.Fatal(err)
		}
		if i == start+killedWriterReady-1 {
			fmt.Println("ready")
		}
	}
}

// TestCacheSurvivesKilledWriter: a writer SIGKILLed in the middle of a
// StoreResult loop leaves a directory in which every key either misses or
// returns exactly the result stored for it, and no leftover temp file is
// ever served. Rounds repeat (each on fresh keys) until a kill has left a
// temp file behind, up to a bound. SIGKILL exercises process death only:
// not power loss, and not a full disk.
func TestCacheSurvivesKilledWriter(t *testing.T) {
	if args := flag.Args(); len(args) == 3 && args[0] == killedWriterChild {
		start, err := strconv.Atoi(args[2])
		if err != nil {
			t.Fatal(err)
		}
		runKilledWriterChild(t, args[1], start)
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skip("cannot locate the test binary:", err)
	}
	dir := t.TempDir()
	const rounds, keysPerRound = 5, 1 << 20
	var temps []string
	for round := 0; round < rounds && len(temps) == 0; round++ {
		cmd := exec.Command(exe, "-test.run=^TestCacheSurvivesKilledWriter$", "--",
			killedWriterChild, dir, strconv.Itoa(round*keysPerRound))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(out).ReadString('\n')
		if err != nil || line != "ready\n" {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("writer did not get under way: %q, %v", line, err)
		}
		time.Sleep(time.Duration(round+1) * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait()
		if temps, err = filepath.Glob(filepath.Join(dir, ".*.tmp")); err != nil {
			t.Fatal(err)
		}
	}

	c := openCache(t, dir, CacheReadWrite)
	entries, err := filepath.Glob(filepath.Join(dir, "result-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(data), "\n", 3)
		if len(lines) < 2 || !strings.HasPrefix(lines[1], "killed-writer/") {
			t.Errorf("%s: a renamed entry is torn: %q", filepath.Base(path), data)
			continue
		}
		key := lines[1]
		i, err := strconv.Atoi(strings.TrimPrefix(key, "killed-writer/"))
		if err != nil {
			t.Fatal(err)
		}
		got, ok := c.LoadResult([]byte(key))
		if !ok {
			continue
		}
		hits++
		gotJSON, err := got.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := killedWriterResult(t, i).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, want) {
			t.Errorf("%s: served a result other than the one stored", key)
		}
	}
	if hits < killedWriterReady {
		t.Errorf("%d entries served, want at least the %d the writer reported durable", hits, killedWriterReady)
	}
	// A temp file holds an entry whose rename never happened: its key must
	// miss, whatever part of the entry reached the file.
	for _, tmp := range temps {
		data, err := os.ReadFile(tmp)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(data), "\n", 3)
		if len(lines) < 2 {
			continue // killed before the key reached the file
		}
		if _, ok := c.LoadResult([]byte(lines[1])); ok {
			t.Errorf("%s: the key of an unrenamed temp file was served", filepath.Base(tmp))
		}
	}
	t.Logf("%d entries, %d served, %d leftover temp files", len(entries), hits, len(temps))
}
