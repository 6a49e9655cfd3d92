package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"moca/internal/profile"
	"moca/internal/sim"
)

// cacheFormatVersion is the on-disk entry format revision; bump it when
// the framing or payload schema changes incompatibly.
// v2: line-framed entries (see RunCache) replace v1's JSON envelope; a v1
// file fails framing on its own slot and is evicted like any stale entry.
// v3: result keys carry an app's class and the profile window only under
// a policy that reads them (Heter-App, MOCA).
const cacheFormatVersion = 3

// CacheMode selects how a RunCache participates in a run.
type CacheMode int

const (
	// CacheOff disables the persistent cache entirely.
	CacheOff CacheMode = iota
	// CacheRead loads cached entries and never touches the directory:
	// no writes, no evictions, no sweep (reproducing from a sealed cache).
	CacheRead
	// CacheReadWrite loads cached entries and persists new ones (the
	// default when a cache directory is configured).
	CacheReadWrite
)

// ParseCacheMode parses the -cache flag values off/read/write.
func ParseCacheMode(s string) (CacheMode, error) {
	switch strings.ToLower(s) {
	case "off":
		return CacheOff, nil
	case "read":
		return CacheRead, nil
	case "write", "readwrite", "rw":
		return CacheReadWrite, nil
	default:
		return CacheOff, fmt.Errorf("exp: unknown cache mode %q (want off, read, or write)", s)
	}
}

func (m CacheMode) String() string {
	switch m {
	case CacheOff:
		return "off"
	case CacheRead:
		return "read"
	case CacheReadWrite:
		return "write"
	default:
		return fmt.Sprintf("CacheMode(%d)", int(m))
	}
}

// CacheStats counts a RunCache's traffic.
type CacheStats struct {
	Hits      uint64 // entries served from disk
	Misses    uint64 // lookups that found no usable entry
	Writes    uint64 // entries persisted
	Evictions uint64 // stale/corrupt entries removed (read-write mode only)
}

// RunCache is a content-addressed persistent cache of simulation results
// and offline profiles, shared across processes via a directory. Writes
// are atomic and durable (temp file + fsync + rename + directory fsync),
// so a crashed or killed run leaves only complete entries behind and the
// next invocation resumes from them; opening the cache in read-write mode
// sweeps any crash debris older tools may have left (orphaned temps,
// zero-byte entries). All methods are safe for concurrent use.
//
// Each entry is line-framed: salt + "\n" + key + "\n" + payload, where the
// payload is the JSON document. The full canonical key is stored, so hash
// collisions and schema drift are caught by byte comparison rather than
// trusted to the filename. Neither salt nor key can hold a newline (JSON
// escapes control characters; store refuses one anyway), so two cuts
// recover the frame. A salt or key mismatch, a missing frame or an
// undecodable payload is a miss; in read-write mode the file is evicted so
// the slot can be rewritten. This is how a simulator behavior bump
// (sim.BehaviorVersion) invalidates stale results in place.
type RunCache struct {
	dir  string
	mode CacheMode
	salt string

	hits, misses, writes, evictions atomic.Uint64
}

// defaultCacheSalt versions every entry: the entry format and the
// simulator behavior revision.
func defaultCacheSalt() string {
	return fmt.Sprintf("moca-cache-v%d/sim-v%d", cacheFormatVersion, sim.BehaviorVersion)
}

// OpenRunCache opens (creating if needed) a persistent run cache rooted at
// dir. Mode CacheOff returns a nil cache — callers treat nil as disabled.
func OpenRunCache(dir string, mode CacheMode) (*RunCache, error) {
	if mode == CacheOff {
		return nil, nil
	}
	if dir == "" {
		return nil, fmt.Errorf("exp: cache directory is empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exp: creating cache directory: %w", err)
	}
	c := &RunCache{dir: dir, mode: mode, salt: defaultCacheSalt()}
	if mode == CacheReadWrite {
		c.sweep()
	}
	return c, nil
}

// sweepTempGrace is how old a temp file must be before the open-time sweep
// treats it as crash debris. A live writer in another process renames (or
// removes) its temp within milliseconds; anything this stale was abandoned
// by a crashed or killed run.
const sweepTempGrace = 10 * time.Minute

// sweep removes crash debris on open: orphaned temp files from writers
// that died before their rename, and zero-byte entries a crash can leave
// behind when the rename was durable but the data was not (the store path
// now fsyncs to prevent new ones; old caches may still carry them).
// Zero-byte removals count as evictions; the sweep itself is best-effort.
func (c *RunCache) sweep() {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	now := time.Now()
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		info, err := e.Info()
		if err != nil {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".tmp"):
			if now.Sub(info.ModTime()) >= sweepTempGrace {
				os.Remove(filepath.Join(c.dir, name))
			}
		case strings.HasSuffix(name, ".json") && info.Size() == 0:
			c.evict(filepath.Join(c.dir, name))
		}
	}
}

// Dir returns the cache directory.
func (c *RunCache) Dir() string { return c.dir }

// Mode returns the cache's mode.
func (c *RunCache) Mode() CacheMode { return c.mode }

// Stats returns a snapshot of the cache's traffic counters.
func (c *RunCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Writes:    c.writes.Load(),
		Evictions: c.evictions.Load(),
	}
}

// path returns the file that holds the entry for (kind, key): the
// SHA-256 of the key bytes, hex-encoded, under the cache directory.
func (c *RunCache) path(kind string, key []byte) string {
	sum := sha256.Sum256(key)
	var buf [256]byte
	b := append(append(buf[:0], c.dir...), os.PathSeparator)
	b = append(append(b, kind...), '-')
	b = hex.AppendEncode(b, sum[:])
	return string(append(b, ".json"...))
}

// entryBufs recycles the buffers load reads entries into. A buffer goes
// back only after its payload has decoded, and both decoders copy every
// string out of their input, so no loaded value aliases a pooled buffer.
var entryBufs = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// load reads the entry for (kind, key) and hands its payload to decode. A
// missing file is a miss; a file whose frame, salt or key does not match,
// or whose payload decode rejects, is rejected (see reject). A hit is
// counted once the payload has decoded.
func (c *RunCache) load(kind string, key []byte, decode func(payload []byte) error) bool {
	if c == nil {
		return false
	}
	path := c.path(kind, key)
	bp := entryBufs.Get().(*[]byte)
	defer entryBufs.Put(bp)
	data, err := readEntry(path, (*bp)[:0])
	*bp = data[:0]
	if err != nil {
		c.misses.Add(1)
		return false
	}
	salt, rest, ok := bytes.Cut(data, newline)
	if !ok || string(salt) != c.salt {
		c.reject(path)
		return false
	}
	k, payload, ok := bytes.Cut(rest, newline)
	if !ok || !bytes.Equal(k, key) || decode(payload) != nil {
		c.reject(path)
		return false
	}
	c.hits.Add(1)
	return true
}

// readEntry reads the file at path into b's spare capacity, growing it
// as needed, and returns the filled slice. It reads through a raw file
// descriptor: os.Open would also set the descriptor non-blocking and try
// to register it with the runtime poller, which a regular file read once
// has no use for. A missing file is an error satisfying
// errors.Is(err, fs.ErrNotExist).
func readEntry(path string, b []byte) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return b, err
	}
	defer syscall.Close(fd)
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		n, err := syscall.Read(fd, b[len(b):cap(b)])
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return b, err
		case n == 0:
			return b, nil
		default:
			b = b[:len(b)+n]
		}
	}
}

var newline = []byte{'\n'}

// reject counts a miss on an unusable entry — corrupt (e.g. a partial
// write from a pre-atomic tool), stale salt, legacy format or hash
// mismatch — and, in read-write mode, evicts the entry at path so the
// slot can be rewritten. Read mode leaves the file alone.
func (c *RunCache) reject(path string) {
	if c.writable() {
		c.evict(path)
	}
	c.misses.Add(1)
}

// writable reports whether stores persist: only in read-write mode.
func (c *RunCache) writable() bool { return c != nil && c.mode == CacheReadWrite }

// store persists the encoded payload under (kind, key) atomically. Callers
// encode and store only when the cache is writable.
func (c *RunCache) store(kind string, key, payload []byte) error {
	if strings.Contains(c.salt, "\n") || bytes.IndexByte(key, '\n') >= 0 {
		return fmt.Errorf("exp: cache salt or %s key contains a newline", kind)
	}
	data := make([]byte, 0, len(c.salt)+len(key)+len(payload)+2)
	data = append(append(data, c.salt...), '\n')
	data = append(append(data, key...), '\n')
	data = append(data, payload...)
	path := c.path(kind, key)
	tmp, err := os.CreateTemp(c.dir, "."+kind+"-*.tmp")
	if err != nil {
		return fmt.Errorf("exp: writing cache entry: %w", err)
	}
	if _, err := writeTemp(tmp, data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("exp: writing cache entry: %w", err)
	}
	// Flush data before the rename publishes the entry: without it a crash
	// shortly after the rename can surface a truncated or zero-byte file
	// under the final name, which would poison the slot until evicted.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("exp: syncing cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("exp: writing cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("exp: writing cache entry: %w", err)
	}
	// Make the rename itself durable so the entry cannot vanish (or revert
	// to the temp name) after a crash.
	if err := syncDir(c.dir); err != nil {
		return fmt.Errorf("exp: syncing cache directory: %w", err)
	}
	c.writes.Add(1)
	return nil
}

// writeTemp writes a cache entry's bytes to its temp file. It is a seam
// so tests can inject write failures such as a full disk (ENOSPC).
var writeTemp = (*os.File).Write

// syncDir fsyncs a directory so a completed rename inside it survives a
// crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (c *RunCache) evict(path string) {
	if err := os.Remove(path); err == nil || os.IsNotExist(err) {
		c.evictions.Add(1)
	}
}

// LoadResult returns the cached simulation result for key, if present and
// valid. An entry that fails to decode is rejected and reported as a miss.
func (c *RunCache) LoadResult(key []byte) (*sim.Result, bool) {
	res := new(sim.Result)
	if !c.load("result", key, res.UnmarshalJSON) {
		return nil, false
	}
	return res, true
}

// StoreResult persists a simulation result under key.
func (c *RunCache) StoreResult(key []byte, res *sim.Result) error {
	if !c.writable() {
		return nil
	}
	payload, err := res.MarshalJSON()
	if err != nil {
		return fmt.Errorf("exp: encoding cache entry: %w", err)
	}
	return c.store("result", key, payload)
}

// LoadProfile returns the cached offline profile for key, if present and
// valid.
func (c *RunCache) LoadProfile(key []byte) (profile.Profile, bool) {
	var pr profile.Profile
	ok := c.load("profile", key, func(payload []byte) (err error) {
		pr, err = profile.Unmarshal(payload)
		return err
	})
	return pr, ok
}

// StoreProfile persists an offline profile under key.
func (c *RunCache) StoreProfile(key []byte, pr profile.Profile) error {
	if !c.writable() {
		return nil
	}
	payload, err := json.Marshal(pr)
	if err != nil {
		return fmt.Errorf("exp: encoding cache entry: %w", err)
	}
	return c.store("profile", key, payload)
}
