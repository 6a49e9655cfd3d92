package exp

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestEffectiveParallelism locks the concurrent-simulation bound: an
// explicit value wins unchanged, even past the machine size, and the
// default is the CPU count floored at one.
func TestEffectiveParallelism(t *testing.T) {
	cases := []struct {
		name                string
		parallelism, numCPU int
		want                int
	}{
		{"default-serial", 0, 8, 8},
		{"default-floors-at-one", 0, 0, 1},
		{"default-single-cpu", 0, 1, 1},
		{"explicit-wins", 6, 8, 6},
		{"explicit-oversubscribes-deliberately", 16, 4, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := effectiveParallelism(tc.parallelism, tc.numCPU); got != tc.want {
				t.Errorf("effectiveParallelism(%d, %d) = %d, want %d",
					tc.parallelism, tc.numCPU, got, tc.want)
			}
		})
	}
}

// TestParallelFirstErrorInSubmissionOrder: when a later task fails first,
// parallel still reports the earliest failing task's error.
func TestParallelFirstErrorInSubmissionOrder(t *testing.T) {
	r := &Runner{Parallelism: 2}
	errFirst, errLater := errors.New("task 0"), errors.New("task 1")
	laterFailed := make(chan struct{})
	err := r.parallel(context.Background(), []func() error{
		func() error { <-laterFailed; return errFirst },
		func() error { close(laterFailed); return errLater },
		func() error { return nil },
	})
	if err != errFirst {
		t.Fatalf("parallel returned %v, want the first task's error %v", err, errFirst)
	}
}

// TestParallelPanicIsTaskError: a panicking task becomes that task's
// error; the other tasks still run.
func TestParallelPanicIsTaskError(t *testing.T) {
	r := &Runner{Parallelism: 2}
	var ran atomic.Int32
	err := r.parallel(context.Background(), []func() error{
		func() error { ran.Add(1); return nil },
		func() error { panic("injected fault") },
		func() error { ran.Add(1); return nil },
	})
	if err == nil || !strings.Contains(err.Error(), "task 1 panicked: injected fault") {
		t.Fatalf("parallel returned %v, want task 1's panic", err)
	}
	if ran.Load() != 2 {
		t.Errorf("%d of the 2 other tasks ran", ran.Load())
	}
}

// TestParallelCancelSkipsQueued: tasks still queued when the ctx is
// canceled never start, and their error is the ctx's.
func TestParallelCancelSkipsQueued(t *testing.T) {
	r := &Runner{Parallelism: 1}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	tasks := []func() error{func() error { ran.Add(1); cancel(); return nil }}
	for i := 0; i < 4; i++ {
		tasks = append(tasks, func() error { ran.Add(1); return nil })
	}
	if err := r.parallel(ctx, tasks); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel returned %v, want context.Canceled", err)
	}
	if ran.Load() != 1 {
		t.Errorf("%d tasks ran, want only the one that canceled", ran.Load())
	}
}

// TestParallelBoundsConcurrency: no more than Parallelism tasks run at
// once, and every task runs exactly once.
func TestParallelBoundsConcurrency(t *testing.T) {
	const limit, n = 3, 24
	r := &Runner{Parallelism: limit}
	var active, peak atomic.Int32
	runs := make([]atomic.Int32, n)
	tasks := make([]func() error, n)
	for i := range tasks {
		tasks[i] = func() error {
			now := active.Add(1)
			for {
				p := peak.Load()
				if now <= p || peak.CompareAndSwap(p, now) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			runs[i].Add(1)
			active.Add(-1)
			return nil
		}
	}
	if err := r.parallel(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > limit {
		t.Errorf("%d tasks ran at once, limit %d", p, limit)
	}
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Errorf("task %d ran %d times", i, got)
		}
	}
}
