package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestShardedPanicInsideEventCallback: on a shard kernel an event callback
// can fire on the driver at the start of a window, before any proc runs in
// it. Its panic must end the run with a *PanicError, exactly as in a
// standalone run, instead of crashing the process.
func TestShardedPanicInsideEventCallback(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			co := NewCoordinator(2, shards, Microsecond)
			co.KernelFor(0).AtOn(0, Time(5*Microsecond), func() { panic("boom") })
			for n := 0; n < 2; n++ {
				d := Duration(10*(n+1)) * Microsecond
				co.KernelFor(n).SpawnOn(n, fmt.Sprintf("rank%d", n), func(p *Proc) { p.Sleep(d) })
			}
			err := co.Run()
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("got %v, want PanicError", err)
			}
			if pe.Value != "boom" {
				t.Fatalf("panic value = %v, want boom", pe.Value)
			}
		})
	}
}

// TestRunLeaksNoGoroutines: every way a run can end — completion,
// deadlock, watchdog expiry, a proc panic — must leave no proc coroutine
// or shard goroutine behind, whether the unfinished procs were parked,
// ready after running, or never started.
func TestRunLeaksNoGoroutines(t *testing.T) {
	const nodes = 4
	scenarios := []struct {
		name     string
		watchdog Duration
		body     func(n int, sig *Signal) func(*Proc)
		want     func(error) bool
	}{
		{"clean", 0, func(n int, sig *Signal) func(*Proc) {
			return func(p *Proc) { p.Sleep(Duration(n+1) * Microsecond) }
		}, func(err error) bool { return err == nil }},
		{"deadlock", 0, func(n int, sig *Signal) func(*Proc) {
			return func(p *Proc) { sig.Wait(p, "never fired") }
		}, func(err error) bool { var e *DeadlockError; return errors.As(err, &e) }},
		{"watchdog", 50 * Microsecond, func(n int, sig *Signal) func(*Proc) {
			return func(p *Proc) {
				for {
					p.Sleep(7 * Microsecond)
				}
			}
		}, func(err error) bool { var e *WatchdogError; return errors.As(err, &e) }},
		// The last node's rank panics while its late proc has not started
		// and, on a single kernel, rank1 sits yielded in the ready queue.
		{"panic", 0, func(n int, sig *Signal) func(*Proc) {
			return func(p *Proc) {
				switch {
				case n == nodes-1:
					panic("abort")
				case n%2 == 1:
					p.Yield()
				}
				sig.Wait(p, "parked")
			}
		}, func(err error) bool { var e *PanicError; return errors.As(err, &e) }},
	}
	for _, sc := range scenarios {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", sc.name, shards), func(t *testing.T) {
				base := runtime.NumGoroutine()
				co := NewCoordinator(nodes, shards, Microsecond)
				co.SetWatchdog(sc.watchdog)
				sigs := make([]Signal, nodes)
				for n := 0; n < nodes; n++ {
					k := co.KernelFor(n)
					k.SpawnOn(n, fmt.Sprintf("rank%d", n), sc.body(n, &sigs[n]))
					// A second proc per node, never started if the run
					// fails before its turn.
					k.SpawnOn(n, fmt.Sprintf("late%d", n), func(p *Proc) {})
				}
				if err := co.Run(); !sc.want(err) {
					t.Fatalf("run ended with %v", err)
				}
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if got := runtime.NumGoroutine(); got > base {
					t.Fatalf("%d goroutines after the run, %d before", got, base)
				}
			})
		}
	}
}
