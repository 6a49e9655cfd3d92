package exp

import (
	"context"
	"errors"
	"testing"
	"time"
)

// stuckProfile installs a profiling flight for the app that never
// completes, simulating a profile pipeline mid-run.
func stuckProfile(r *Runner, app string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.instr == nil {
		r.instr = make(map[string]*appInstr)
		r.iflight = make(map[string]*instrFlight)
	}
	r.iflight[app] = &instrFlight{done: make(chan struct{})}
}

// TestInstrumentCtxDetachesFromStuckFlight is the regression test for the
// ctx-blind Instrument wait: a caller joined to an in-progress profiling
// flight must detach when its own context fires, instead of watching only
// the runner-level context (which for a default runner never fires).
func TestInstrumentCtxDetachesFromStuckFlight(t *testing.T) {
	r := fastRunner()
	stuckProfile(r, "mcf")

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := r.InstrumentCtx(ctx, "mcf")
		errc <- err
	}()
	cancel()

	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("InstrumentCtx returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("InstrumentCtx did not detach from the in-flight profile")
	}
}

// TestCanceledFlightAbortsProfilingWait: simulate threads the flight
// context into InstrumentCtx, so when the last waiter detaches and
// cancels a flight that is parked on a shared profiling run, the flight
// aborts promptly instead of leaking until the profile finishes.
func TestCanceledFlightAbortsProfilingWait(t *testing.T) {
	r := fastRunner()
	stuckProfile(r, "mcf")
	def := ddr3Def()
	memoKey := MemoKey(def, "single/mcf")

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := r.RunSingleCtx(ctx, def, "mcf")
		errc <- err
	}()
	pollUntil(t, "flight to register", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		_, live := r.flights[memoKey]
		return live
	})

	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("sole waiter returned %v, want context.Canceled", err)
	}
	// The lead is parked inside InstrumentCtx on the stuck profile; the
	// flight cancellation must reach it and clear the flight.
	pollUntil(t, "canceled flight parked on profiling to clear", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		_, live := r.flights[memoKey]
		return !live
	})
}

// TestRejoinAfterLastWaiterCancel is the regression test for the
// dead-flight join race: a caller arriving while a flight whose last
// waiter just canceled is still draining must not inherit that flight's
// spurious context.Canceled — it waits the corpse out and retries the
// key.
func TestRejoinAfterLastWaiterCancel(t *testing.T) {
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

	// A detaches; it was the only waiter, so the flight is canceled — but
	// its lead is still gated inside the constructor, so the dying flight
	// stays registered with zero waiters.
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("detached waiter returned %v, want context.Canceled", err)
	}
	if n := waitersOf(r, memoKey); n != 0 {
		t.Fatalf("dead flight has %d waiters, want 0", n)
	}

	// B arrives with a live context while the corpse is still draining.
	type outcome struct {
		err error
		ok  bool
	}
	outB := make(chan outcome, 1)
	go func() {
		res, err := r.RunSingleCtx(context.Background(), def, "mcf")
		outB <- outcome{err: err, ok: res != nil}
	}()
	// Give B time to reach the dead flight before releasing the gate; the
	// assertion below holds under every interleaving regardless.
	time.Sleep(20 * time.Millisecond)

	close(release)
	got := <-outB
	if got.err != nil {
		t.Fatalf("caller joining after last-waiter cancel returned %v, want success", got.err)
	}
	if !got.ok {
		t.Fatal("caller joining after last-waiter cancel received a nil result")
	}
	if st := r.Stats(); st.Simulated != 1 {
		t.Errorf("Simulated = %d, want 1 (aborted corpse must not count, retry must run once)", st.Simulated)
	}
}
