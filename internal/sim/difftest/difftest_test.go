package difftest

import (
	"strings"
	"testing"

	"moca/internal/obs"
	"moca/internal/sim"
)

// TestMigrationCopyDropParity: the best-effort migration copy path is
// observable, and fast and slow execution abandon exactly the same copies
// — the drop count is part of the byte-identity contract, not a
// mode-dependent artifact. Asserted both on the whole-run channel counter
// and on the measured-window obs counter.
func TestMigrationCopyDropParity(t *testing.T) {
	var c Case
	for _, mc := range Matrix(1) {
		if strings.HasPrefix(mc.Name, "migrate") {
			c = mc
		}
	}
	if c.Name == "" {
		t.Fatal("matrix lost its migration case")
	}
	drops := map[bool]uint64{}
	counters := map[bool]uint64{}
	for _, slow := range []bool{false, true} {
		cfg := c.Cfg
		cfg.NoFastpath = slow
		cfg.Obs.Metrics = true
		sys, err := sim.New(cfg, c.Procs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(c.Warmup, c.Measure)
		if err != nil {
			t.Fatal(err)
		}
		drops[slow] = sys.MigrationCopyDrops()
		counters[slow] = res.Obs.Counters["mem.migration_copy_drops"]
	}
	if drops[false] != drops[true] {
		t.Errorf("whole-run copy drops diverge: fast=%d slow=%d", drops[false], drops[true])
	}
	if counters[false] != counters[true] {
		t.Errorf("measured-window drop counters diverge: fast=%d slow=%d", counters[false], counters[true])
	}
	t.Logf("migration copy drops: whole-run=%d, measured-window=%d", drops[false], counters[false])
}

// TestCompareDetectsDivergence proves the comparator actually fires: a
// synthetic mismatch in each comparison layer must be found and minimized
// to the right path.
func TestCompareDetectsDivergence(t *testing.T) {
	base := outcome{res: []byte(`{"elapsed_ps":100,"cores":[{"ipc":1.5}]}`)}

	t.Run("error-strings", func(t *testing.T) {
		d := compare(outcome{err: "core 0: boom"}, outcome{err: ""})
		if d == nil || d.Path != "error" {
			t.Fatalf("got %v, want divergence at error", d)
		}
	})
	t.Run("json-field", func(t *testing.T) {
		other := outcome{res: []byte(`{"elapsed_ps":100,"cores":[{"ipc":1.75}]}`)}
		d := compare(base, other)
		if d == nil {
			t.Fatal("identical verdict for differing results")
		}
		if want := "$.cores[0].ipc"; d.Path != want {
			t.Fatalf("path %q, want %q", d.Path, want)
		}
	})
	t.Run("trace-event", func(t *testing.T) {
		a := outcome{res: base.res, events: []obs.Event{{At: 42, Kind: obs.PagePlaced, Unit: "os", Addr: 7}}}
		b := outcome{res: base.res, events: []obs.Event{{At: 42, Kind: obs.PagePlaced, Unit: "os", Addr: 9}}}
		d := compare(a, b)
		if d == nil {
			t.Fatal("identical verdict for differing traces")
		}
		if d.TickPs != 42 || d.Component != "os" || d.Field != "addr" {
			t.Fatalf("trace divergence context = (%d, %q, %q), want (42, os, addr)", d.TickPs, d.Component, d.Field)
		}
		if !strings.HasPrefix(d.Path, "trace[0]") {
			t.Fatalf("path %q, want trace[0].*", d.Path)
		}
	})
	t.Run("trace-length", func(t *testing.T) {
		a := outcome{res: base.res, events: []obs.Event{{At: 1, Kind: obs.RowConflict, Unit: "ch0"}}}
		d := compare(a, outcome{res: base.res})
		if d == nil || d.Field != "len" || d.TickPs != 1 {
			t.Fatalf("got %v, want length divergence at tick 1", d)
		}
	})
	t.Run("identical", func(t *testing.T) {
		if d := compare(base, base); d != nil {
			t.Fatalf("spurious divergence: %v", d)
		}
	})
}

// TestMatrixFastpathAxis is the differential harness: with the
// inline-hit/compute-batch fast path disabled, every matrix case must stay
// byte-identical to the default fast execution — metrics, energy, run
// trace, and error strings alike.
func TestMatrixFastpathAxis(t *testing.T) {
	for _, c := range Matrix(3) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			d, err := RunModes(c, Mode{}, Mode{NoFastpath: true})
			if err != nil {
				t.Fatal(err)
			}
			if d != nil {
				t.Fatalf("fast path diverged from slow path:\n%s", d)
			}
		})
	}
}
