package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// Each kernel drives its procs as coroutines from one loop: the driver
// picks the next proc, resumes it, and the proc yields back when it
// blocks. These tests pin down the corners: unwinding procs that were
// parked, ready, or never started when the run failed, blaming callback
// panics on the right proc, context-switch accounting, and the
// zero-switch fast paths.

// TestPingPongHalvesContextSwitches is the headline accounting check: two
// procs exchanging n messages park once per receive, so the run makes
// 2n+2 scheduling decisions (two bootstrap dispatches plus 2n receive
// wakeups). A scheduler goroutine between procs (proc -> kernel -> proc)
// would pay two switches per decision; the driver counts one resume per
// decision, so Stats.ContextSwitch must come out at no more than half
// that event-driven handoff count.
func TestPingPongHalvesContextSwitches(t *testing.T) {
	const n = 1000
	k := NewKernel()
	ab := NewQueue[int]("a->b")
	ba := NewQueue[int]("b->a")
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < n; i++ {
			ab.Send(i)
			if got := ba.Recv(p); got != i {
				t.Errorf("a got %d, want %d", got, i)
			}
		}
	})
	k.Spawn("b", func(p *Proc) {
		for i := 0; i < n; i++ {
			if got := ab.Recv(p); got != i {
				t.Errorf("b got %d, want %d", got, i)
			}
			ba.Send(i)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	decisions := uint64(2*n + 2)
	eventDriven := 2 * decisions // what the two-hop scheduler would pay
	if k.Stats.ContextSwitch > eventDriven/2 {
		t.Fatalf("context switches = %d, want <= %d (half of %d event-driven handoffs)",
			k.Stats.ContextSwitch, eventDriven/2, eventDriven)
	}
	if k.Stats.ContextSwitch < decisions/2 {
		t.Fatalf("context switches = %d suspiciously low for %d decisions",
			k.Stats.ContextSwitch, decisions)
	}
}

// TestSleepFastPathZeroHandoffs: a solo proc's sleeps must advance the
// clock without scheduling events or switching to the driver, while a proc
// whose wakeup races an earlier event must take the slow path and see the
// event fire first.
func TestSleepFastPathZeroHandoffs(t *testing.T) {
	k := NewKernel()
	k.Spawn("solo", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Stats.ContextSwitch != 1 {
		t.Fatalf("switches = %d, want 1 (bootstrap only)", k.Stats.ContextSwitch)
	}
	if k.Now() != Time(100*Microsecond) {
		t.Fatalf("clock = %v, want 100us", k.Now())
	}
	if k.Stats.Events != 100 {
		t.Fatalf("events = %d, want 100 (fast-path sleeps still count)", k.Stats.Events)
	}
}

func TestSleepFastPathYieldsToEarlierEvent(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("p", func(p *Proc) {
		k.After(2*Microsecond, func() { order = append(order, "event@2") })
		p.Sleep(5 * Microsecond) // slow path: the 2us event precedes the wakeup
		order = append(order, fmt.Sprintf("wake@%v", p.Now()))
		p.Sleep(3 * Microsecond) // fast path: heap is empty again
		order = append(order, fmt.Sprintf("wake@%v", p.Now()))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "event@2,wake@5.000us,wake@8.000us"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

// TestSleepSameInstantEventOrdering: an event already scheduled at the
// exact wakeup instant has a smaller sequence number, so it must fire
// before the sleeper resumes — the fast path may not swallow it.
func TestSleepSameInstantEventOrdering(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("p", func(p *Proc) {
		k.After(4*Microsecond, func() { order = append(order, "event") })
		p.Sleep(4 * Microsecond)
		order = append(order, "sleeper")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "event,sleeper" {
		t.Fatalf("order = %q, want event before sleeper", got)
	}
}

// TestYieldFastPathEmptyQueue: yielding with nothing else ready is free —
// no switches beyond bootstrap, and execution order is unchanged.
func TestYieldFastPathEmptyQueue(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Yield()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Stats.ContextSwitch != 1 {
		t.Fatalf("switches = %d, want 1", k.Stats.ContextSwitch)
	}
}

// TestPanicMidRunWithReadyProcs: a proc panics while other procs are
// ready (not just parked); the ready-but-never-run ones must unwind too
// and the panic must surface. The panicking proc's coroutine records the
// failure, and the driver's next scheduler step ends the run.
func TestPanicMidRunWithReadyProcs(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.Spawn("bomb", func(p *Proc) { panic("early") })
	for i := 0; i < 5; i++ {
		k.Spawn(fmt.Sprintf("never%d", i), func(p *Proc) { ran++ })
	}
	err := k.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want PanicError", err)
	}
	if pe.Proc != "bomb" {
		t.Fatalf("wrong proc: %+v", pe)
	}
	if ran != 0 {
		t.Fatalf("%d ready procs ran after the failure; old scheduler aborted before dispatching them", ran)
	}
}

// TestPanicInsideEventCallback: event callbacks fire on the driver after
// a proc blocks; a panic there is attributed to the proc the driver
// resumed last and still aborts the run cleanly.
func TestPanicInsideEventCallback(t *testing.T) {
	k := NewKernel()
	var sig Signal
	k.Spawn("bystander", func(p *Proc) { sig.Wait(p, "forever") })
	k.Spawn("scheduler-host", func(p *Proc) {
		k.After(Microsecond, func() { panic("callback boom") })
		p.Sleep(5 * Microsecond)
	})
	err := k.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want PanicError", err)
	}
	if pe.Proc != "scheduler-host" {
		t.Fatalf("panic attributed to %q, want the token holder", pe.Proc)
	}
}

// TestDeadlockReportedByTokenHolder: after the last proc parks, the
// driver finds nothing runnable and must report a deadlock that includes
// that proc too, then unwind it cleanly even though it was the one
// running just before the verdict.
func TestDeadlockReportedByTokenHolder(t *testing.T) {
	k := NewKernel()
	var sig Signal
	k.Spawn("first", func(p *Proc) { sig.Wait(p, "first reason") })
	k.Spawn("last", func(p *Proc) {
		p.Sleep(Microsecond) // guarantee it parks after "first"
		sig.Wait(p, "last reason")
	})
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 2 {
		t.Fatalf("blocked = %v, want both procs", dl.Blocked)
	}
	if !strings.Contains(err.Error(), "last reason") {
		t.Fatalf("report omits the detecting proc: %v", err)
	}
	if dl.At != Time(Microsecond) {
		t.Fatalf("deadlock at %v, want 1us", dl.At)
	}
}

// TestDeadlockDetectedByExitingProc: the run can also dead-end right
// after a proc finishes, with only parked procs left; the survivors are
// reported and unwound.
func TestDeadlockDetectedByExitingProc(t *testing.T) {
	k := NewKernel()
	var sig Signal
	k.Spawn("stuck", func(p *Proc) { sig.Wait(p, "abandoned") })
	k.Spawn("quitter", func(p *Proc) { p.Sleep(Microsecond) })
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || !strings.Contains(dl.Blocked[0], "stuck") {
		t.Fatalf("blocked = %v, want only the parked proc", dl.Blocked)
	}
}

// TestShutdownUnwindsMixedStates: on abort the kernel must stop parked
// procs, ready procs that have run before, and ready procs that have
// never run (TestRunLeaksNoGoroutines checks that nothing is left).
func TestShutdownUnwindsMixedStates(t *testing.T) {
	// Spawn order matters: "parked" parks, "ran-then-ready" yields behind
	// "bomb" in the FIFO, so when bomb panics the kernel must unwind one
	// blocked proc, one ready proc that has run, and one ready proc that
	// never ran.
	k := NewKernel()
	var sig Signal
	k.Spawn("parked", func(p *Proc) { sig.Wait(p, "never fired") })
	k.Spawn("ran-then-ready", func(p *Proc) {
		p.Yield() // parks behind bomb in the ready queue
		t.Error("ran-then-ready resumed after failure")
	})
	k.Spawn("bomb", func(p *Proc) { panic("abort") })
	k.Spawn("never-ran", func(p *Proc) { t.Error("never-ran was dispatched") })
	err := k.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want PanicError", err)
	}
	if pe.Proc != "bomb" {
		t.Fatalf("panic attributed to %q, want bomb", pe.Proc)
	}
}

// TestSelfHandoffSkipsChannels: a proc whose every receive finds data
// never blocks, so it must run to the end on its first resume.
func TestSelfHandoffSkipsChannels(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int]("loop")
	k.Spawn("self", func(p *Proc) {
		for i := 0; i < 100; i++ {
			q.Send(i) // readies nobody; queue already has data for Recv
			if got := q.Recv(p); got != i {
				t.Errorf("got %d, want %d", got, i)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Stats.ContextSwitch != 1 {
		t.Fatalf("switches = %d, want 1 (all recvs hit data)", k.Stats.ContextSwitch)
	}
}

// TestHandoffSchedulingOrderMatchesFIFO re-pins the global ordering
// contract: spawn order, ready FIFO, and event seq tiebreaks decide who
// runs next, exactly as in every earlier scheduler (the committed
// results/ tables depend on it).
func TestHandoffSchedulingOrderMatchesFIFO(t *testing.T) {
	k := NewKernel()
	var got []string
	var sig Signal
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		k.Spawn(name, func(p *Proc) {
			got = append(got, name+":start")
			sig.Wait(p, "gate")
			got = append(got, name+":released")
		})
	}
	k.Spawn("driver", func(p *Proc) {
		p.Sleep(Microsecond)
		sig.FireAll()
		got = append(got, "driver:fired")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "w0:start w1:start w2:start w3:start driver:fired " +
		"w0:released w1:released w2:released w3:released"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("order:\n got %s\nwant %s", s, want)
	}
}
