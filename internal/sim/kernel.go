// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel runs simulated processes ("procs") as coroutines (iter.Pull)
// driven by one plain loop per kernel, so exactly one of them executes at
// a time. All simulation state is therefore mutated without data races
// and every run is bit-for-bit reproducible: scheduling is decided only by
// the virtual clock, a FIFO ready queue, and an event heap with a (LP,
// counter) tiebreaker.
//
// The driver (drive) asks the scheduler step (schedule) for the next
// runnable proc — the step pops the ready queue, or fires due events,
// advancing the clock, until one readies a proc — and resumes it. The
// proc runs until it blocks, which yields straight back to the driver: a
// coroutine switch, with no channel, no goroutine park and no trip
// through the Go scheduler. A proc that sleeps while nothing else can
// happen before its wakeup advances the clock in place and never yields.
//
// Procs interact with the kernel through blocking primitives (Sleep,
// Signal.Wait, Semaphore.Acquire, Queue.Recv). When every proc is parked,
// the scheduler step pops the earliest event, advances the virtual clock
// to it, and fires its callback, which typically readies one or more
// procs. If the ready queue and event heap are both empty while procs
// remain parked, the run ends with a deadlock report naming each blocked
// proc.
//
// # Logical processes and sharding
//
// Every proc and event belongs to a logical process (LP). A standalone
// kernel (NewKernel) has a single LP and behaves exactly as described
// above. A Coordinator (see sync.go) partitions the LPs of one simulation
// across several kernels — one per shard plus one for the shared network
// — and runs them in parallel under a conservative time-window protocol.
// Event keys are (at, origin LP, per-LP counter) in every mode, so the
// pop order, and therefore the simulation's entire behavior, is identical
// for every shard count.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// maxTime is the sentinel "never" instant for horizons and deadlines.
const maxTime = Time(1 << 62)

type procState uint8

const (
	stateReady procState = iota
	stateRunning
	stateBlocked
	stateDone
)

// Proc is a simulated process. A Proc handle is only valid inside the
// function passed to Kernel.Spawn, and all of its methods must be called
// from that function.
type Proc struct {
	k         *Kernel
	id        int
	lp        int32 // owning logical process (shard-local state domain)
	name      string
	state     procState
	blockedOn string
	wake      func() // cached Sleep callback: one closure per proc, not per call

	// The coroutine (see start): the driver calls resume to run the proc
	// until it next blocks, the proc calls yield to block, and shutdown
	// calls stop to unwind a proc that will never be resumed.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
}

// ID returns the proc's dense index in spawn order.
func (p *Proc) ID() int { return p.id }

// Name returns the label given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this proc belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// LP returns the logical process (node) the proc belongs to.
func (p *Proc) LP() int { return int(p.lp) }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// errKilled is panicked inside procs that are parked when the kernel
// shuts down (deadlock or abort), so their stacks unwind cleanly.
type errKilled struct{}

// DeadlockError is returned by Kernel.Run when no event can advance the
// simulation while procs remain blocked.
type DeadlockError struct {
	At      Time
	Blocked []string // "name: reason" for each parked proc
	Diag    string   // optional workload diagnostic (see SetDiagnostic)
}

func (e *DeadlockError) Error() string {
	msg := fmt.Sprintf("sim: deadlock at t=%v; blocked procs:\n  %s",
		e.At, strings.Join(e.Blocked, "\n  "))
	if e.Diag != "" {
		msg += "\n" + e.Diag
	}
	return msg
}

// WatchdogError is returned by Kernel.Run when a watchdog deadline (see
// SetWatchdog) expires with procs still alive: the run is aborted with a
// dump of every parked proc's wait reason, the pending event-heap head,
// and any workload diagnostic, instead of simulating a wedged collective
// forever (or until global deadlock, which a stuck-but-still-ticking
// scenario never reaches).
type WatchdogError struct {
	Deadline  Time
	Blocked   []string // "name: reason" for each parked proc
	NextEvent string   // event-heap head past the deadline, "none" if dry
	Diag      string   // optional workload diagnostic (see SetDiagnostic)
}

func (e *WatchdogError) Error() string {
	msg := fmt.Sprintf("sim: watchdog expired at t=%v; blocked procs:\n  %s\nnext pending event: %s",
		e.Deadline, strings.Join(e.Blocked, "\n  "), e.NextEvent)
	if e.Diag != "" {
		msg += "\n" + e.Diag
	}
	return msg
}

// PanicError wraps a panic raised inside a proc.
type PanicError struct {
	Proc  string
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: proc %q panicked: %v", e.Proc, e.Value)
}

// KernelStats counts scheduler activity; useful in tests and reports.
// Events and HeapHighWater are identical for every shard count of the
// same simulation; ContextSwitch depends on how procs interleave within
// one kernel and is therefore deterministic per shard count but not
// shard-invariant.
type KernelStats struct {
	Events uint64
	// ContextSwitch counts proc resumes by the driver: each is one
	// coroutine switch into a proc (and one back when it blocks or
	// ends). A proc that blocks and is the next to run counts again, as
	// it does go through the driver; the Sleep and Yield fast paths never
	// block and count nothing.
	ContextSwitch uint64
	// HeapHighWater is the largest number of events pending at once —
	// the scheduler's memory footprint peak. A host-side counter only;
	// tracking it cannot affect virtual time.
	HeapHighWater uint64
}

// add accumulates other into s (used by Coordinator.Stats).
func (s *KernelStats) add(o KernelStats) {
	s.Events += o.Events
	s.ContextSwitch += o.ContextSwitch
	s.HeapHighWater += o.HeapHighWater
}

// outEvent is a cross-shard event creation buffered in the source
// kernel's per-destination outbox until the next window barrier. The key
// (at, prio) was fixed at creation time by the source LP, so the order
// outboxes are drained in cannot affect where the event sorts.
type outEvent struct {
	at   Time
	prio uint64
	exec int32
	fn   func()
}

// Kernel owns a virtual clock, an event heap, and a proc scheduler for
// one shard's worth of logical processes. The zero value is not usable;
// call NewKernel (standalone, single LP) or build a Coordinator.
type Kernel struct {
	now    Time
	events eventHeap
	epool  []*Event // dead events recycled by At (see Event doc)

	// LP bookkeeping. The kernel owns the contiguous LP range
	// [lpBase, lpBase+lpCount); curLP tracks which LP's code is
	// executing (the running proc's LP, or a firing event's exec LP) and
	// keys every event the code creates. oseq holds one creation counter
	// per owned LP: each LP executes identically under any shard count,
	// so the counters — and with them every event key — are globally
	// consistent.
	lpBase, lpCount int32
	netLP           int32
	curLP           int32
	oseq            []uint64

	procs []*Proc
	ready procRing // FIFO
	alive int

	// Sharding. A standalone kernel has coord == nil and runs the legacy
	// single-heap loop. Under a sharded Coordinator, windowed is true for
	// shard kernels: schedule stops at horizon and ends the window instead
	// of terminating, and cross-shard AtOn calls buffer into outbox
	// (drained by the coordinator at barriers).
	coord     *Coordinator
	kidx      int
	windowed  bool
	horizon   Time
	lookahead Duration
	outbox    [][]outEvent

	// watchdogAt aborts the run when the next live event would fire at
	// or past it while procs are still alive (see SetWatchdog).
	watchdogAt Time

	// Schedule exploration (see explore.go). explore == nil means the
	// canonical schedule with zero overhead on the hot paths. When set,
	// push perturbs same-instant tiebreaks through explore.perm, and the
	// fire loops fold each LP's executed (at, raw) sequence into digest
	// (plus, when recording, adjacent same-instant pairs into ties). All
	// arrays are indexed by lp - lpBase.
	explore *exploreState
	digest  []uint64
	lastAt  []Time
	lastRaw []uint64
	lastSeq []uint64
	fireSeq uint64
	ties    [][]TiePair

	started bool
	last    *Proc // proc most recently resumed; blamed for callback panics
	termErr error // deadlock or watchdog verdict, nil on clean completion
	failure error // first proc or callback panic, aborts the run
	diag    func() string

	Stats KernelStats
}

// newKernel builds a kernel owning LPs [lpBase, lpBase+lpCount) in a
// simulation whose shared network LP is netLP.
func newKernel(lpBase, lpCount, netLP int) *Kernel {
	return &Kernel{
		lpBase:     int32(lpBase),
		lpCount:    int32(lpCount),
		netLP:      int32(netLP),
		curLP:      int32(lpBase),
		oseq:       make([]uint64, lpCount),
		horizon:    maxTime,
		watchdogAt: maxTime,
	}
}

// NewKernel returns an empty standalone kernel at virtual time zero, with
// a single logical process.
func NewKernel() *Kernel {
	return newKernel(0, 1, 0)
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// NumProcs returns the number of spawned procs.
func (k *Kernel) NumProcs() int { return len(k.procs) }

// Started reports whether Run (or the owning coordinator's Run) has
// begun.
func (k *Kernel) Started() bool { return k.started }

// NetLP returns the LP id of the simulation's shared network domain (the
// kernel's own LP for standalone kernels).
func (k *Kernel) NetLP() int { return int(k.netLP) }

// Lookahead returns the conservative cross-LP latency bound the owning
// coordinator synchronizes with (0 for standalone kernels).
func (k *Kernel) Lookahead() Duration { return k.lookahead }

func (k *Kernel) owns(lp int32) bool {
	return lp >= k.lpBase && lp < k.lpBase+k.lpCount
}

// nextPrio assigns the next event key tiebreaker for events created by
// origin: the LP id in the high bits (offset by one so that a
// coordinator-issued key with origin -1 would sort before everything at
// its instant) and the LP's private creation counter below.
func (k *Kernel) nextPrio(origin int32) uint64 {
	i := origin - k.lpBase
	k.oseq[i]++
	return uint64(origin+1)<<44 | k.oseq[i]
}

// permKey maps an event's raw (origin, counter) key to its heap key:
// the identity normally, the exploration transform under a config. The
// explored order is phase-normalized: a network-LP event sorts after
// every node-LP event at the same instant (bit 63), mirroring the
// sharded window protocol's node-phase-then-net-phase execution, and
// keeps its canonical key within the net range; node-LP keys are
// perturbed through a 63-bit bijection. See the soundness note in
// explore.go for why both halves are required for shard invariance.
func (k *Kernel) permKey(at Time, raw uint64, exec int32) uint64 {
	if k.explore == nil {
		return raw
	}
	if exec == k.netLP {
		return raw | 1<<63
	}
	return k.explore.perm(at, raw)
}

// push allocates (or recycles) an event and inserts it into the heap.
// prio is the raw (origin, counter) key minted by nextPrio; under an
// exploration config the heap key is its perturbed image while raw is
// kept on the event for digesting (see explore.go).
func (k *Kernel) push(at Time, prio uint64, exec int32, fn func()) *Event {
	key := k.permKey(at, prio, exec)
	var born uint64
	if k.explore != nil {
		born = k.fireSeq
	}
	var e *Event
	if n := len(k.epool); n > 0 {
		e = k.epool[n-1]
		k.epool[n-1] = nil
		k.epool = k.epool[:n-1]
		*e = Event{at: at, prio: key, raw: prio, born: born, exec: exec, fn: fn}
	} else {
		e = &Event{at: at, prio: key, raw: prio, born: born, exec: exec, fn: fn}
	}
	k.events.push(e)
	if n := uint64(k.events.len()); n > k.Stats.HeapHighWater {
		k.Stats.HeapHighWater = n
	}
	return e
}

// inject merges a cross-shard event (drained from a source kernel's
// outbox) into this kernel's heap. Called only by the coordinator at
// window barriers, when no shard is executing. An event landing below the
// destination's clock would mean the window protocol let the destination
// run past an instant another kernel could still populate — with adaptive
// horizons that is exactly the invariant route's shrinking maintains, so
// it is checked here rather than silently clamped.
func (k *Kernel) inject(o outEvent) {
	if o.at < k.now {
		panic(fmt.Sprintf("sim: cross-shard event at t=%v delivered to kernel already at t=%v", o.at, k.now))
	}
	k.push(o.at, o.prio, o.exec, o.fn)
}

// At schedules fn to run in kernel context when the virtual clock reaches
// t, on the current LP. Scheduling in the past (t < Now) is clamped to
// Now, which makes the event fire before any later-scheduled work. The
// returned Event may be cancelled.
//
// Event objects are pooled: a handle is valid until the event fires or,
// if cancelled, until the kernel discards it, after which the object may
// back a different scheduled event. Holders must drop their reference
// once the callback has run (as the flow scheduler does by nil-ing its
// handle inside the callback).
func (k *Kernel) At(t Time, fn func()) *Event {
	if t < k.now {
		t = k.now
	}
	return k.push(t, k.nextPrio(k.curLP), k.curLP, fn)
}

// AtOn schedules fn to run at t as LP lp, which may live on another
// shard. No Event handle is returned: a cross-shard event cannot be
// cancelled or rescheduled by its creator.
//
// Before Run, lp must be owned by this kernel and the event is keyed by
// the target LP itself, so pre-run setup (fault plans, watchdogs)
// produces identical event keys under every shard count. During the run,
// a cross-LP event whose target is not the network LP must fire at least
// the coordinator's lookahead into the future — that bound is what lets
// shards run a whole time window without observing each other.
func (k *Kernel) AtOn(lp int, t Time, fn func()) {
	l := int32(lp)
	if t < k.now {
		t = k.now
	}
	if !k.started {
		if !k.owns(l) {
			panic(fmt.Sprintf("sim: pre-run AtOn(%d) on kernel owning [%d,%d)", lp, k.lpBase, k.lpBase+k.lpCount))
		}
		k.push(t, k.nextPrio(l), l, fn)
		return
	}
	if k.lookahead > 0 && l != k.curLP && l != k.netLP && t < k.now.Add(k.lookahead) {
		panic(fmt.Sprintf("sim: cross-LP event %d->%d at t=%v violates lookahead %v (now %v)",
			k.curLP, l, t, k.lookahead, k.now))
	}
	if k.owns(l) {
		k.push(t, k.nextPrio(k.curLP), l, fn)
		return
	}
	k.coord.route(k, outEvent{at: t, prio: k.nextPrio(k.curLP), exec: l, fn: fn})
}

// AfterOn schedules fn to run d from now as LP lp (see AtOn). Negative d
// is treated as zero.
func (k *Kernel) AfterOn(lp int, d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.AtOn(lp, k.now.Add(d), fn)
}

// AfterNet schedules fn to run d from now on the shared network LP.
// Zero-delay injection into the network domain is always legal: the
// network phase of every time window runs after all shard phases.
func (k *Kernel) AfterNet(d Duration, fn func()) {
	k.AfterOn(int(k.netLP), d, fn)
}

// recycle returns a dead (fired or discarded-cancelled) event to the
// allocation pool.
func (k *Kernel) recycle(e *Event) {
	e.fn = nil
	k.epool = append(k.epool, e)
}

// popEventBefore removes and returns the earliest live event firing
// before limit, discarding (and recycling) cancelled ones. Returns nil
// when no live event remains below the limit.
func (k *Kernel) popEventBefore(limit Time) *Event {
	for k.events.len() > 0 {
		if k.events.a[0].at >= limit {
			return nil
		}
		e := k.events.pop()
		if !e.cancelled {
			return e
		}
		k.recycle(e)
	}
	return nil
}

// nextLiveAt discards cancelled events from the top of the heap and
// returns the first live event's instant without removing it.
func (k *Kernel) nextLiveAt() (Time, bool) {
	for k.events.len() > 0 {
		e := k.events.a[0].ev
		if !e.cancelled {
			return e.at, true
		}
		k.recycle(k.events.pop())
	}
	return 0, false
}

// Reschedule moves a pending event to fire at t instead, keeping its
// callback. It is exactly equivalent to cancelling e and scheduling a
// fresh event with At — the event is re-keyed with the current LP's next
// creation counter, so its ordering relative to every other event is
// identical — but it updates the heap in place instead of leaving a
// cancelled tombstone behind. Callers that adjust event times in bulk
// (the flow scheduler re-fits completion times after every rate change)
// must use this: with 10k concurrent flows, cancel-and-replace made five
// of every six heap entries garbage and tripled the heap's depth.
//
// e must be pending: not nil, not cancelled, not yet fired.
func (k *Kernel) Reschedule(e *Event, t Time) {
	if e == nil || e.cancelled || e.index < 0 {
		panic("sim: Reschedule of a dead event")
	}
	if t < k.now {
		t = k.now
	}
	raw := k.nextPrio(k.curLP)
	e.raw = raw
	if k.explore != nil {
		e.born = k.fireSeq // re-keying is a re-creation for tie purposes
	}
	k.events.update(e, t, k.permKey(t, raw, e.exec))
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (k *Kernel) After(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return k.At(k.now.Add(d), fn)
}

// SetDiagnostic installs a workload-level dump (per-rank pending
// requests, say) that is appended to deadlock and watchdog reports. The
// callback runs in kernel context at fault time and must not block.
func (k *Kernel) SetDiagnostic(fn func() string) { k.diag = fn }

// SetWatchdog arms a virtual-time deadline: if any proc is still alive
// when the next live event would fire at or past it, the run aborts with
// a *WatchdogError naming every blocked proc instead of simulating a
// wedged workload forever. A run that completes before the deadline is
// unaffected, and a genuine global deadlock before the deadline is also
// reported as a WatchdogError (the deadline is the verdict the caller
// asked for). The deadline is a bound checked at event pops, not a
// pending event, so it never advances the clock. d <= 0 is a no-op; the
// watchdog is off by default. Must be called before Run.
func (k *Kernel) SetWatchdog(d Duration) {
	if k.started {
		panic("sim: SetWatchdog after Run")
	}
	if d <= 0 {
		return
	}
	k.watchdogAt = k.now.Add(d)
}

// watchdogErr builds the abort verdict for an expired watchdog.
func (k *Kernel) watchdogErr(next string) *WatchdogError {
	e := &WatchdogError{Deadline: k.watchdogAt, Blocked: k.blockedDump(), NextEvent: next}
	if k.diag != nil {
		e.Diag = k.diag()
	}
	return e
}

// Spawn registers a new proc running body on the kernel's first LP. It
// must be called before Run (procs spawning procs is not supported;
// MPI-style workloads spawn the whole world up front).
func (k *Kernel) Spawn(name string, body func(*Proc)) *Proc {
	return k.SpawnOn(int(k.lpBase), name, body)
}

// SpawnOn registers a new proc running body as LP lp, which must be
// owned by this kernel.
func (k *Kernel) SpawnOn(lp int, name string, body func(*Proc)) *Proc {
	if k.started {
		panic("sim: Spawn after Run")
	}
	if !k.owns(int32(lp)) {
		panic(fmt.Sprintf("sim: SpawnOn(%d) on kernel owning [%d,%d)", lp, k.lpBase, k.lpBase+k.lpCount))
	}
	p := &Proc{
		k:     k,
		id:    len(k.procs),
		lp:    int32(lp),
		name:  name,
		state: stateReady,
	}
	p.wake = func() { k.readyProc(p) }
	p.start(body)
	k.procs = append(k.procs, p)
	k.ready.push(p)
	k.alive++
	return p
}

// exit ends the proc's coroutine, deferred around its body: a panic
// other than a shutdown's errKilled becomes the run's failure.
func (p *Proc) exit() {
	if r := recover(); r != nil {
		if _, killed := r.(errKilled); !killed && p.k.failure == nil {
			p.k.failure = &PanicError{Proc: p.name, Value: r}
		}
	}
	p.state = stateDone
	p.k.alive--
}

// Run drives the simulation until every proc has finished and no live
// events remain. It returns a *DeadlockError if procs are stuck, a
// *WatchdogError if the armed deadline expired, or a *PanicError if a
// proc panicked. Run may only be called once, and not on a kernel owned
// by a sharded Coordinator (use Coordinator.Run).
func (k *Kernel) Run() error {
	if k.started {
		panic("sim: Run called twice")
	}
	if k.windowed {
		panic("sim: Run on a sharded kernel; use Coordinator.Run")
	}
	k.started = true
	k.drive()
	err := k.failure
	if err == nil {
		err = k.termErr
	}
	k.shutdown()
	return err
}

// drive runs the kernel until the run (standalone) or the window
// (sharded) is over: it resumes each proc the scheduler step picks, and
// each proc runs until it blocks or ends. Event callbacks fire here, on
// the driver, so a callback panic is recovered here and blamed on the
// proc that ran last, the proc whose blocking let the event fire.
func (k *Kernel) drive() {
	defer func() {
		if r := recover(); r != nil && k.failure == nil {
			k.failure = &PanicError{Proc: k.culprit(), Value: r}
		}
	}()
	for p := k.schedule(); p != nil; p = k.schedule() {
		k.last = p
		k.Stats.ContextSwitch++
		p.resume()
	}
}

// culprit names whoever is blamed for a failure raised on the driver: the
// proc that ran last, or "event callback" before any proc has run.
func (k *Kernel) culprit() string {
	if k.last == nil {
		return "event callback"
	}
	return k.last.name
}

// schedule is the scheduler step: it fires due events until a proc is
// ready and returns that proc, marked running. It returns nil when the
// run is over, leaving any deadlock or watchdog verdict in termErr, and
// for a shard kernel when its window is exhausted below the horizon; the
// coordinator then decides what happens next.
func (k *Kernel) schedule() *Proc {
	for k.failure == nil {
		if k.ready.len() > 0 {
			p := k.ready.pop()
			if p.state == stateDone {
				continue
			}
			p.state = stateRunning
			k.curLP = p.lp
			return p
		}
		e := k.popEventBefore(k.horizon)
		if e == nil {
			switch {
			case k.windowed, k.alive == 0:
				// Window exhausted, or clean completion.
			case k.watchdogAt < maxTime:
				k.termErr = k.watchdogErr("none")
			default:
				k.termErr = k.deadlock()
			}
			return nil
		}
		if e.at >= k.watchdogAt {
			if k.alive > 0 {
				k.termErr = k.watchdogErr(fmt.Sprintf("t=%v", e.at))
				return nil
			}
			// Everything finished before the deadline: disarm and drain.
			k.watchdogAt = maxTime
		}
		k.fire(e)
	}
	return nil
}

// runWindow executes this kernel's events below the horizon inline on
// the calling goroutine. Used by the coordinator for the network kernel,
// which has events but no procs.
func (k *Kernel) runWindow() {
	for e := k.popEventBefore(k.horizon); e != nil; e = k.popEventBefore(k.horizon) {
		k.fire(e)
	}
}

// fire advances the clock to a popped live event and runs its callback
// as the event's LP.
func (k *Kernel) fire(e *Event) {
	if e.at > k.now {
		k.now = e.at
	}
	k.Stats.Events++
	k.curLP = e.exec
	if k.explore != nil {
		k.noteFire(e.at, e.raw, e.born, e.exec)
	}
	fn := e.fn
	k.recycle(e)
	fn()
}

// deadlock builds the error naming every parked proc.
func (k *Kernel) deadlock() *DeadlockError {
	e := &DeadlockError{At: k.now, Blocked: k.blockedDump()}
	if k.diag != nil {
		e.Diag = k.diag()
	}
	return e
}

// blockedDump lists every parked proc as "name: reason", sorted for
// stable reports.
func (k *Kernel) blockedDump() []string {
	var blocked []string
	for _, p := range k.procs {
		if p.state == stateBlocked {
			blocked = append(blocked, fmt.Sprintf("%s: %s", p.name, p.blockedOn))
		}
	}
	sort.Strings(blocked)
	return blocked
}

// shutdown stops every unfinished proc's coroutine so no goroutines leak
// after a failed run: a parked proc unwinds through errKilled, and a proc
// that never ran exits without running its body.
func (k *Kernel) shutdown() {
	for _, p := range k.procs {
		if p.state != stateDone {
			p.stop()
			p.state = stateDone
		}
	}
	k.ready.reset()
}

// readyProc appends p to the ready queue. Kernel-internal; called from
// event callbacks and from the currently running proc.
func (k *Kernel) readyProc(p *Proc) {
	if p.state != stateBlocked {
		panic(fmt.Sprintf("sim: readying proc %q in state %d", p.name, p.state))
	}
	p.state = stateReady
	k.ready.push(p)
}

// park blocks the calling proc until something readies it. why is shown in
// deadlock reports. The proc yields to the driver, which resumes it once
// the scheduler step picks it again; if shutdown stops it instead, it
// unwinds with errKilled.
func (p *Proc) park(why string) {
	p.state = stateBlocked
	p.blockedOn = why
	p.suspend()
	p.blockedOn = ""
}

// suspend yields the proc's coroutine to the driver, having left the proc
// blocked or ready, and returns when the driver resumes it.
func (p *Proc) suspend() {
	if !p.yield(struct{}{}) {
		panic(errKilled{})
	}
}

// Yield lets all other currently-ready procs run before continuing.
// Virtual time does not advance. With an empty ready queue nothing could
// interleave, so it returns immediately without touching the scheduler.
func (p *Proc) Yield() {
	k := p.k
	if k.ready.len() == 0 {
		return
	}
	p.state = stateReady
	k.ready.push(p)
	p.suspend()
}

// Sleep blocks the proc for d of virtual time. Negative d is treated as 0
// but still yields.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	k := p.k
	// Zero-switch fast path: if no proc is ready, no event precedes
	// this proc's own wakeup, and the wakeup lands inside the current
	// window and watchdog deadline, the wakeup is by construction the
	// next thing to happen (it would carry the highest creation counter,
	// so any event at the same instant fires first — hence the strict >).
	// Advance the clock and keep running: no event scheduled, no park,
	// no switch to the driver. Common in per-hop pipelined loops where one
	// rank repeatedly sleeps for transfer or overhead durations. Events
	// merged from other shards always fire at or past the horizon, so
	// skipping the heap cannot skip over them.
	//
	// Disabled under exploration: whether the fast path is taken depends
	// on this kernel's heap and ready queue — shard-local state — and a
	// taken fast path skips minting a creation counter. Canonically that
	// is sound (a per-LP counter shift preserves order: same-LP relative
	// order is untouched and cross-LP keys compare on the origin bits
	// first), but a salted permutation scrambles relative counter order,
	// so skipped counters would make the schedule depend on the shard
	// count. Exploration therefore always schedules the real wakeup.
	if k.ready.len() == 0 && k.explore == nil {
		wakeAt := k.now.Add(d)
		if wakeAt < k.horizon && wakeAt < k.watchdogAt {
			if at, ok := k.events.peekAt(); !ok || at > wakeAt {
				k.now = wakeAt
				k.Stats.Events++ // stands in for the skipped wakeup event
				return
			}
		}
	}
	k.After(d, p.wake)
	// A static reason: a sleeping proc always has a live wakeup event, so
	// it can never appear in a deadlock report, and formatting the target
	// time here put a fmt.Sprintf on the simulator's hottest path.
	p.park("sleep")
}

// SleepUntil blocks the proc until virtual time t (no-op if already past).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.k.now {
		p.Yield()
		return
	}
	p.Sleep(t.Sub(p.k.now))
}

// procRing is the ready queue: a FIFO over a power-of-two ring buffer
// with O(1) push and pop. The previous slice-based FIFO shifted every
// remaining element on each pop, which made a single scheduling decision
// O(n) once thousands of procs were ready at the same instant (the
// steady state of a 10k-rank collective).
type procRing struct {
	buf  []*Proc
	head int
	n    int
}

func (r *procRing) len() int { return r.n }

func (r *procRing) push(p *Proc) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

// pop removes the oldest proc. Callers must check len first.
func (r *procRing) pop() *Proc {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

func (r *procRing) reset() { *r = procRing{} }

func (r *procRing) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 64
	}
	buf := make([]*Proc, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}
