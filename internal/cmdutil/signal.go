// Package cmdutil holds the small pieces the moca commands share: signal
// handling with a force-exit escape hatch, the run-cache flags and the
// run-trace writer.
package cmdutil

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// ForceExitCode is the status a second interrupt exits with: 128+SIGINT,
// the conventional "killed by signal" code, distinct from the commands'
// ordinary failure status 1.
const ForceExitCode = 130

// exit is an os.Exit seam so tests can observe the force-exit instead of
// dying.
var exit = os.Exit

// NotifyContext is signal.NotifyContext with a second-chance escape hatch.
// The first SIGINT/SIGTERM cancels the returned context so the command
// can drain cleanly (flush traces, spill the run cache, stop accepting
// connections); with plain signal.NotifyContext any further signal during
// that drain is swallowed, leaving the user unable to interrupt a stuck
// flush. Here a second signal prints a diagnostic and force-exits with
// ForceExitCode immediately.
//
// The returned stop function releases the signal registration and the
// watcher; like signal.NotifyContext it must be deferred before any
// deferred cleanup so the escape hatch stays armed while cleanups run.
func NotifyContext(parent context.Context, name string) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	stopped := make(chan struct{})
	go func() {
		defer signal.Stop(ch)
		select {
		case sig := <-ch:
			fmt.Fprintf(os.Stderr, "%s: %v: shutting down (interrupt again to force exit)\n", name, sig)
			cancel()
		case <-ctx.Done():
			// Parent canceled or stop called: shutdown began elsewhere,
			// keep watching so an interrupt during the drain still works.
		case <-stopped:
			return
		}
		select {
		case sig := <-ch:
			fmt.Fprintf(os.Stderr, "%s: second %v during shutdown: forcing exit\n", name, sig)
			exit(ForceExitCode)
		case <-stopped:
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			close(stopped)
			cancel()
		})
	}
	return ctx, stop
}
