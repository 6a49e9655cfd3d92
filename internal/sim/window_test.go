package sim

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"moca/internal/cpu"
	"moca/internal/mem"
	"moca/internal/workload"
)

// stormProcs is a 4-core mix small enough to run thousands of windows
// quickly.
func stormProcs() []ProcSpec {
	return []ProcSpec{
		{App: workload.MCF(), Input: workload.Ref},
		{App: workload.Milc(), Input: workload.Ref},
		{App: workload.GCC(), Input: workload.Ref},
		{App: workload.LBM(), Input: workload.Ref},
	}
}

// TestCancelMidWindow cancels the context while a 4-core run is deep in
// its measurement phase: the run must surface the cancellation as an error
// promptly at the next window barrier.
func TestCancelMidWindow(t *testing.T) {
	cfg := DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed)
	sys, err := New(cfg, stormProcs())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		// A quota far beyond what 30 ms of wall clock can simulate: the
		// only way out is the cancellation.
		_, err := sys.RunContext(ctx, 0, 50_000_000)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run completed despite cancellation")
		}
		if !strings.Contains(err.Error(), "canceled") {
			t.Fatalf("error %q does not report the cancellation", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled run did not return")
	}
}

// panicStream explodes after feeding n instructions.
type panicStream struct {
	n int
}

func (p *panicStream) Next() (cpu.Instr, bool) {
	if p.n <= 0 {
		panic("panicStream: injected core failure")
	}
	p.n--
	return cpu.Instr{Kind: cpu.Compute, N: 1}, true
}

// TestPanickingCore injects a panic into one core of a 4-core run: the
// run must recover it into an error keyed with the failing core instead
// of crashing the process.
func TestPanickingCore(t *testing.T) {
	const victim = 2
	procs := stormProcs()
	procs[victim].Stream = &panicStream{n: 400}
	cfg := DefaultConfig("homogen-ddr3", Homogeneous(mem.DDR3), PolicyFixed)
	sys, err := New(cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run(0, 10_000)
	if err == nil {
		t.Fatal("run succeeded despite a panicking core")
	}
	msg := err.Error()
	if !strings.Contains(msg, fmt.Sprintf("core shard %d", victim)) {
		t.Errorf("error %q is not keyed to core shard %d", msg, victim)
	}
	if !strings.Contains(msg, "panic") || !strings.Contains(msg, "injected core failure") {
		t.Errorf("error %q does not carry the recovered panic", msg)
	}
}
