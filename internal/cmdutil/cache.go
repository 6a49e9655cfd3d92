package cmdutil

import (
	"flag"
	"fmt"
	"os"

	"moca/internal/exp"
	"moca/internal/obs"
)

// CacheFlags are the -cache-dir and -cache flags of a command that opens
// a RunCache.
type CacheFlags struct {
	name      string
	dir, mode *string
}

// RegisterCacheFlags defines -cache-dir and -cache on the command line,
// defaulting to $MOCA_CACHE_DIR and $MOCA_CACHE; name prefixes the
// errors Open prints.
func RegisterCacheFlags(name string) *CacheFlags {
	mode := os.Getenv("MOCA_CACHE")
	if mode == "" {
		mode = "write"
	}
	return &CacheFlags{
		name: name,
		dir:  flag.String("cache-dir", os.Getenv("MOCA_CACHE_DIR"), "persistent run-cache directory (default $MOCA_CACHE_DIR; empty = disabled)"),
		mode: flag.String("cache", mode, "persistent cache mode: off, read, or write (default $MOCA_CACHE or write)"),
	}
}

// Open opens the run cache the flags select: nil without a directory or
// in mode off. On failure it prints the error and returns the exit
// status: 2 for a bad mode (a usage error), 1 for a directory it cannot
// open.
func (c *CacheFlags) Open() (*exp.RunCache, int) {
	if *c.dir == "" {
		return nil, 0
	}
	mode, err := exp.ParseCacheMode(*c.mode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
		return nil, 2
	}
	cache, err := exp.OpenRunCache(*c.dir, mode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
		return nil, 1
	}
	return cache, 0
}

// WriteTrace writes tr to path as JSON lines.
func WriteTrace(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
