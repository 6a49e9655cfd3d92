package exp

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"moca/internal/sim"
)

// gatedNewSystem installs a constructor stub that signals `started` when a
// simulation begins and blocks it until `release` is closed, so tests can
// hold a flight in its in-progress window deterministically.
func gatedNewSystem(t *testing.T) (started chan struct{}, release chan struct{}) {
	t.Helper()
	started = make(chan struct{}, 8)
	release = make(chan struct{})
	swapNewSystem(t, func(cfg sim.Config, procs []sim.ProcSpec) (*sim.System, error) {
		started <- struct{}{}
		<-release
		return sim.New(cfg, procs)
	})
	return started, release
}

// waitersOf reads a flight's refcount under the runner lock (0 if the
// flight does not exist).
func waitersOf(r *Runner, memoKey string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.flights[memoKey]; ok {
		return f.waiters
	}
	return 0
}

func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWaiterDetachKeepsFlightAlive is the regression test for the shared-
// flight cancellation bug: a caller whose context fires while joined to an
// in-flight singleflight must detach with its own ctx.Err() and leave the
// simulation running for the remaining waiter, who still receives the
// result. Must pass under -race.
func TestWaiterDetachKeepsFlightAlive(t *testing.T) {
	r := fastRunner()
	if _, err := r.Instrument("mcf"); err != nil {
		t.Fatal(err)
	}
	started, release := gatedNewSystem(t)
	def := ddr3Def()
	memoKey := MemoKey(def, "single/mcf")

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, err := r.RunSingleCtx(ctxA, def, "mcf")
		errA <- err
	}()
	<-started // the flight is now executing

	type outcome struct {
		res *sim.Result
		err error
	}
	outB := make(chan outcome, 1)
	go func() {
		res, err := r.RunSingleCtx(context.Background(), def, "mcf")
		outB <- outcome{res, err}
	}()
	pollUntil(t, "second caller to join the flight", func() bool {
		return waitersOf(r, memoKey) == 2
	})

	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("detached waiter returned %v, want context.Canceled", err)
	}
	// The flight must survive the detach: still registered, one waiter.
	if n := waitersOf(r, memoKey); n != 1 {
		t.Fatalf("flight has %d waiters after detach, want 1", n)
	}

	close(release)
	got := <-outB
	if got.err != nil {
		t.Fatalf("surviving waiter: %v", got.err)
	}
	if got.res == nil {
		t.Fatal("surviving waiter received a nil result")
	}
	if st := r.Stats(); st.Simulated != 1 {
		t.Errorf("Simulated = %d, want 1 (detach must not restart the run)", st.Simulated)
	}
}

// TestLastWaiterCancelsFlight: when every joined caller has detached, the
// flight's context is canceled so the orphaned simulation stops instead of
// burning cycles for nobody — and the key is retryable afterwards.
func TestLastWaiterCancelsFlight(t *testing.T) {
	r := fastRunner()
	if _, err := r.Instrument("mcf"); err != nil {
		t.Fatal(err)
	}
	started, release := gatedNewSystem(t)
	def := ddr3Def()
	memoKey := MemoKey(def, "single/mcf")

	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := r.RunSingleCtx(ctxA, def, "mcf")
		errA <- err
	}()
	<-started

	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("sole waiter returned %v, want context.Canceled", err)
	}

	// Unblock the constructor: the flight context is already canceled, so
	// RunContext must abort without counting a simulation, and the failed
	// flight must be forgotten.
	close(release)
	pollUntil(t, "canceled flight to be forgotten", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		_, live := r.flights[memoKey]
		_, memoized := r.results[memoKey]
		return !live && !memoized
	})
	if st := r.Stats(); st.Simulated != 0 {
		t.Errorf("Simulated = %d after abandoned flight, want 0", st.Simulated)
	}

	// The key works again once somebody actually wants it.
	var wg sync.WaitGroup
	wg.Add(1)
	var retryErr error
	go func() {
		defer wg.Done()
		_, retryErr = r.RunSingleCtx(context.Background(), def, "mcf")
	}()
	<-started
	wg.Wait()
	if retryErr != nil {
		t.Fatalf("retry after abandoned flight: %v", retryErr)
	}
	if st := r.Stats(); st.Simulated != 1 {
		t.Errorf("Simulated = %d after retry, want 1", st.Simulated)
	}
}
