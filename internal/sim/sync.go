package sim

import (
	"fmt"
	"sort"
)

// Signal is a broadcast/wakeup primitive for procs, analogous to a
// condition variable. Waiters are released in FIFO order, which keeps
// simulations deterministic.
type Signal struct {
	waiters []*Proc
}

// Wait parks the calling proc until Fire or FireAll releases it. why is
// included in deadlock reports.
func (s *Signal) Wait(p *Proc, why string) {
	s.waiters = append(s.waiters, p)
	p.park(why)
}

// Fire readies the oldest waiter, if any, and reports whether one was
// released. May be called from a running proc or an event callback.
func (s *Signal) Fire() bool {
	if len(s.waiters) == 0 {
		return false
	}
	p := s.waiters[0]
	copy(s.waiters, s.waiters[1:])
	s.waiters = s.waiters[:len(s.waiters)-1]
	p.k.readyProc(p)
	return true
}

// FireAll readies every waiter (FIFO order) and returns how many were
// released.
func (s *Signal) FireAll() int {
	n := len(s.waiters)
	for _, p := range s.waiters {
		p.k.readyProc(p)
	}
	s.waiters = s.waiters[:0]
	return n
}

// Pending returns the number of parked waiters.
func (s *Signal) Pending() int { return len(s.waiters) }

// Semaphore is a counted semaphore with FIFO handoff, used to model
// serialized resources (e.g. a NIC injector or a SHArP operation slot).
type Semaphore struct {
	name    string
	permits int
	queue   []*Proc
}

// NewSemaphore returns a semaphore with the given initial permit count.
func NewSemaphore(name string, permits int) *Semaphore {
	if permits < 0 {
		panic("sim: negative semaphore permits")
	}
	return &Semaphore{name: name, permits: permits}
}

// Acquire takes one permit, parking the proc until one is available.
// Handoff is FIFO: a released permit goes to the oldest waiter even if a
// later proc calls Acquire at the same instant.
func (s *Semaphore) Acquire(p *Proc) {
	if s.permits > 0 && len(s.queue) == 0 {
		s.permits--
		return
	}
	s.queue = append(s.queue, p)
	p.park(fmt.Sprintf("semaphore %q", s.name))
}

// TryAcquire takes a permit without blocking, reporting success.
func (s *Semaphore) TryAcquire() bool {
	if s.permits > 0 && len(s.queue) == 0 {
		s.permits--
		return true
	}
	return false
}

// Release returns one permit, waking the oldest waiter if any. Safe to
// call from event callbacks.
func (s *Semaphore) Release() {
	if len(s.queue) > 0 {
		p := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue = s.queue[:len(s.queue)-1]
		p.k.readyProc(p)
		return
	}
	s.permits++
}

// Queued returns the number of procs waiting for a permit.
func (s *Semaphore) Queued() int { return len(s.queue) }

// Queue is an unbounded FIFO mailbox carrying values of type T between
// procs. Send never blocks; Recv parks until a value is available.
type Queue[T any] struct {
	name  string
	items []T
	sig   Signal
}

// NewQueue returns an empty queue labeled name for deadlock reports.
func NewQueue[T any](name string) *Queue[T] {
	return &Queue[T]{name: name}
}

// Send enqueues v and wakes one receiver if any is parked. Callable from
// procs and event callbacks.
func (q *Queue[T]) Send(v T) {
	q.items = append(q.items, v)
	q.sig.Fire()
}

// Recv dequeues the oldest value, parking the proc while the queue is
// empty.
func (q *Queue[T]) Recv(p *Proc) T {
	for len(q.items) == 0 {
		q.sig.Wait(p, fmt.Sprintf("queue %q recv", q.name))
	}
	v := q.items[0]
	var zero T
	q.items[0] = zero
	copy(q.items, q.items[1:])
	q.items = q.items[:len(q.items)-1]
	return v
}

// TryRecv dequeues without blocking, reporting whether a value was
// available.
func (q *Queue[T]) TryRecv() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items[0] = zero
	copy(q.items, q.items[1:])
	q.items = q.items[:len(q.items)-1]
	return v, true
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return len(q.items) }

// WaitGroup tracks completion of a known number of proc-side tasks in
// virtual time.
type WaitGroup struct {
	n   int
	sig Signal
}

// Add increases the outstanding-task count.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.sig.FireAll()
	}
}

// Done decrements the counter, waking waiters when it reaches zero.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait parks p until the counter is zero.
func (w *WaitGroup) Wait(p *Proc, why string) {
	for w.n > 0 {
		w.sig.Wait(p, why)
	}
}

// Coordinator partitions one simulation's logical processes — one LP per
// node plus one for the shared network — across shard kernels and runs
// them in parallel under a conservative time-window protocol. With
// shards=1 it degenerates to a single kernel running the classic serial
// loop; with shards>1 each shard kernel runs its window on its own
// goroutine. Either way the simulation's behavior is bit-identical: event
// keys are (at, origin LP, per-LP counter) in both modes, LP state is
// disjoint, and no callback may touch another LP's state, so pop order —
// and therefore every simulated outcome — does not depend on the shard
// count.
//
// The synchronization scheme is the textbook conservative one: no shard
// may execute past the earliest instant at which another shard could
// still send it work. Cross-shard events (other than into the network LP)
// must fire at least `lookahead` after their creation — in this codebase
// the inter-node wire latency, which every cross-node interaction pays —
// so all kernels can safely run windows before exchanging outboxes at a
// barrier. The network LP runs single-threaded between shard phases:
// zero-delay injection into it is always legal because its window fires
// after every shard's.
//
// Window horizons are adaptive, per kernel. Kernel j's window opens at
// horizon h_j = min over the other kernels' earliest pending instant t_i,
// plus the lookahead: nothing another kernel does this window can land in
// j below that. When j itself emits a cross-kernel event mid-window, its
// horizon shrinks to the earliest instant a reaction to that event could
// reach back (route): the event's time plus the lookahead for shard
// kernels, the event's time itself for the network kernel, whose
// recipients may inject back with zero delay. A kernel whose peers are
// all idle therefore runs arbitrarily far between barriers — the fixed
// base+L horizon barriered ~once per wire latency even when every event
// was shard-local — while dense cross-shard phases degrade to exactly
// the fixed-window behavior. The executed prefix of each LP's event
// sequence is horizon-independent (keys are assigned at creation), so
// results stay bit-identical; only the barrier count changes.
type Coordinator struct {
	nodes     int
	shards    int
	lookahead Duration
	sharded   bool

	kernels []*Kernel // shard kernels; single mode: exactly one, == netK
	netK    *Kernel
	shardOf []int32 // node LP -> shard index (sharded mode only)

	// watchdogAt and diag mirror Kernel.SetWatchdog/SetDiagnostic at the
	// coordinator level for sharded runs (the verdict is reached at a
	// window barrier, where only the coordinator has the global view).
	watchdogAt Time
	diag       func() string

	winStart []chan Time // per-shard window-open signal (carries horizon)
	winDone  chan int    // shard -> coordinator window-exhausted signal

	tbuf   []Time // per-round scratch: each kernel's earliest pending instant
	rounds uint64 // window barriers executed (see Rounds)

	started bool
}

// NewCoordinator builds the kernels for a simulation with the given
// number of node LPs, split across shards. lookahead is the conservative
// bound on cross-node latency (the inter-node wire latency): a
// non-positive lookahead admits no safe window, so shards is forced to 1.
// shards is clamped to [1, nodes].
func NewCoordinator(nodes, shards int, lookahead Duration) *Coordinator {
	if nodes < 1 {
		nodes = 1
	}
	if shards < 1 || lookahead <= 0 {
		shards = 1
	}
	if shards > nodes {
		shards = nodes
	}
	c := &Coordinator{nodes: nodes, shards: shards, lookahead: lookahead, watchdogAt: maxTime}
	netLP := nodes
	if shards == 1 {
		// Single-kernel mode: one kernel owns every node LP and the
		// network LP, and runs the classic serial loop. The lookahead is
		// still recorded so that code paths parameterized by it (and the
		// cross-LP timing assertion) behave identically to sharded runs.
		k := newKernel(0, nodes+1, netLP)
		k.lookahead = lookahead
		c.kernels = []*Kernel{k}
		c.netK = k
		return c
	}
	c.sharded = true
	c.shardOf = make([]int32, nodes)
	c.winStart = make([]chan Time, shards)
	c.winDone = make(chan int, shards)
	c.kernels = make([]*Kernel, shards)
	for i := 0; i < shards; i++ {
		base := i * nodes / shards
		end := (i + 1) * nodes / shards
		k := newKernel(base, end-base, netLP)
		k.lookahead = lookahead
		k.coord = c
		k.kidx = i
		k.windowed = true
		k.outbox = make([][]outEvent, shards+1)
		c.kernels[i] = k
		c.winStart[i] = make(chan Time, 1)
		for n := base; n < end; n++ {
			c.shardOf[n] = int32(i)
		}
	}
	c.netK = newKernel(netLP, 1, netLP)
	c.netK.lookahead = lookahead
	c.netK.coord = c
	c.netK.kidx = shards
	c.netK.outbox = make([][]outEvent, shards+1)
	c.tbuf = make([]Time, shards+1)
	return c
}

// Nodes returns the number of node LPs.
func (c *Coordinator) Nodes() int { return c.nodes }

// Shards returns the effective shard count (after clamping).
func (c *Coordinator) Shards() int { return c.shards }

// Lookahead returns the conservative cross-node latency bound.
func (c *Coordinator) Lookahead() Duration { return c.lookahead }

// KernelFor returns the kernel owning the given node LP.
func (c *Coordinator) KernelFor(node int) *Kernel {
	if !c.sharded {
		return c.kernels[0]
	}
	return c.kernels[c.shardOf[node]]
}

// NetKernel returns the kernel owning the shared network LP (the single
// kernel itself when not sharded).
func (c *Coordinator) NetKernel() *Kernel { return c.netK }

// ownerIdx maps an LP to its owner's index in the drain order: shard
// index for node LPs, shards for the network LP.
func (c *Coordinator) ownerIdx(lp int32) int {
	if lp == int32(c.nodes) {
		return c.shards
	}
	return int(c.shardOf[lp])
}

// route buffers a cross-kernel event into the source kernel's
// per-destination outbox. The event's key was already assigned by the
// source LP, so drain order cannot affect where it sorts.
//
// Routing also shrinks the source's own horizon: once src has emitted an
// event at o.at, a chain of reactions to it can reach back into src as
// early as o.at + lookahead (the recipient acts at o.at; anything it aims
// back at src pays the wire). The network kernel's recipients may inject
// back into it with zero delay, so its bound is o.at itself. Shrinking at
// emission time is what makes the adaptively widened horizons of Run
// safe: the static per-window horizon only accounts for events that
// existed at the barrier, not for consequences of this window's own
// sends.
func (c *Coordinator) route(src *Kernel, o outEvent) {
	i := c.ownerIdx(o.exec)
	src.outbox[i] = append(src.outbox[i], o)
	bound := o.at
	if src != c.netK {
		bound = o.at.Add(c.lookahead)
		if bound < o.at {
			bound = maxTime // overflow guard
		}
	}
	if bound < src.horizon {
		src.horizon = bound
	}
}

// drain merges a kernel's buffered cross-shard events into their
// destination heaps. Called only at window barriers, when no shard is
// executing.
func (c *Coordinator) drain(k *Kernel) {
	for idx, list := range k.outbox {
		if len(list) == 0 {
			continue
		}
		dst := c.netK
		if idx < c.shards {
			dst = c.kernels[idx]
		}
		for i := range list {
			dst.inject(list[i])
			list[i].fn = nil
		}
		k.outbox[idx] = list[:0]
	}
}

// SetWatchdog arms a virtual-time deadline for the whole simulation (see
// Kernel.SetWatchdog). Must be called before Run.
func (c *Coordinator) SetWatchdog(d Duration) {
	if c.started {
		panic("sim: SetWatchdog after Run")
	}
	if !c.sharded {
		c.kernels[0].SetWatchdog(d)
		return
	}
	if d <= 0 {
		return
	}
	c.watchdogAt = Time(0).Add(d)
}

// SetDiagnostic installs a workload-level dump appended to deadlock and
// watchdog reports (see Kernel.SetDiagnostic).
func (c *Coordinator) SetDiagnostic(fn func() string) {
	if !c.sharded {
		c.kernels[0].SetDiagnostic(fn)
		return
	}
	c.diag = fn
}

// Now returns the simulation's current virtual time: the furthest any
// kernel has advanced. After Run returns it is the instant the last
// event fired, matching the serial kernel's clock.
func (c *Coordinator) Now() Time {
	t := c.netK.now
	for _, k := range c.kernels {
		if k.now > t {
			t = k.now
		}
	}
	return t
}

// Stats returns scheduler counters aggregated across all kernels. Events
// is identical for every shard count of the same simulation;
// ContextSwitch and HeapHighWater depend on the partitioning (but are
// deterministic for a fixed shard count).
func (c *Coordinator) Stats() KernelStats {
	var s KernelStats
	for _, k := range c.kernels {
		s.add(k.Stats)
	}
	if c.sharded {
		s.add(c.netK.Stats)
	}
	return s
}

// NumProcs returns the number of spawned procs across all kernels.
func (c *Coordinator) NumProcs() int {
	n := 0
	for _, k := range c.kernels {
		n += len(k.procs)
	}
	return n
}

// Run drives the simulation to completion and returns what Kernel.Run
// would: nil, *DeadlockError, *WatchdogError, or *PanicError. In sharded
// mode it executes the window protocol: give every shard kernel its own
// horizon (the earliest pending instant of any *other* kernel plus the
// lookahead, capped at the watchdog deadline — see the type comment for
// why that is safe), let the shards run their events and procs below it
// in parallel, exchange cross-shard events at the barrier, run the
// network LP's window inline up to the earliest instant any shard could
// still inject, repeat.
func (c *Coordinator) Run() error {
	if c.started {
		panic("sim: Coordinator.Run called twice")
	}
	c.started = true
	if !c.sharded {
		return c.kernels[0].Run()
	}
	for _, k := range c.kernels {
		k.started = true
	}
	c.netK.started = true
	for i := range c.kernels {
		k, ch := c.kernels[i], c.winStart[i]
		go func() {
			for h := range ch {
				k.horizon = h
				k.drive()
				c.winDone <- k.kidx
			}
		}()
	}
	defer func() {
		for _, ch := range c.winStart {
			close(ch)
		}
	}()
	for {
		// Per-kernel earliest pending instant: the earliest live event, or
		// the clock of a kernel that still has ready procs (only possible
		// before the first window; windows end with empty ready queues).
		// The window base — the earliest instant anything can happen
		// anywhere — drives termination and the watchdog exactly as in the
		// fixed-horizon protocol.
		ts := c.tbuf
		alive := 0
		for i, k := range c.kernels {
			t := maxTime
			if at, ok := k.nextLiveAt(); ok {
				t = at
			}
			if k.ready.len() > 0 && k.now < t {
				t = k.now
			}
			ts[i] = t
			alive += k.alive
		}
		ts[c.shards] = maxTime
		if at, ok := c.netK.nextLiveAt(); ok {
			ts[c.shards] = at
		}
		// min1/min2: smallest and second-smallest pending instants, so
		// each kernel's "earliest other" is min1 — or min2 for the unique
		// holder of min1.
		min1, min2 := maxTime, maxTime
		cnt1 := 0
		for _, t := range ts {
			switch {
			case t < min1:
				min2, min1, cnt1 = min1, t, 1
			case t == min1:
				cnt1++
			case t < min2:
				min2 = t
			}
		}
		base := min1
		if base == maxTime {
			switch {
			case alive == 0:
				return nil // clean completion
			case c.watchdogAt < maxTime:
				return c.fail(c.watchdogErr("none"))
			default:
				return c.fail(c.deadlockErr())
			}
		}
		if base >= c.watchdogAt {
			if alive > 0 {
				return c.fail(c.watchdogErr(fmt.Sprintf("t=%v", base)))
			}
			c.watchdogAt = maxTime // all procs finished; drain freely
		}
		c.rounds++
		// Phase 1: every shard runs its window in parallel, each up to its
		// own horizon (dynamically shrunk by route as it emits).
		for i, ch := range c.winStart {
			m := min1
			if ts[i] == min1 && cnt1 == 1 {
				m = min2
			}
			h := m.Add(c.lookahead)
			if h <= m {
				h = maxTime // overflow guard (m may be the maxTime sentinel)
			}
			if h > c.watchdogAt {
				h = c.watchdogAt
			}
			ch <- h
		}
		for range c.kernels {
			<-c.winDone
		}
		for _, k := range c.kernels {
			if k.failure != nil {
				return c.fail(k.failure)
			}
		}
		for _, k := range c.kernels {
			c.drain(k)
		}
		// Phase 2: the network LP's window, single-threaded. Runs after
		// the shard phase so zero-delay shard->net injection is legal. Its
		// horizon is the earliest instant any shard (with this barrier's
		// deliveries merged) could still act — and therefore still inject
		// into the network zero-delay; route shrinks it further if the
		// network itself emits, since its wire events wake nodes that may
		// inject back at their arrival instant.
		hn := maxTime
		for _, k := range c.kernels {
			if at, ok := k.nextLiveAt(); ok && at < hn {
				hn = at
			}
			if k.ready.len() > 0 && k.now < hn {
				hn = k.now
			}
		}
		if hn > c.watchdogAt {
			hn = c.watchdogAt
		}
		c.netK.horizon = hn
		c.netK.runWindow()
		c.drain(c.netK)
	}
}

// Rounds returns the number of window barriers a sharded run has
// executed — the adaptive-batching effectiveness metric (fixed horizons
// pay roughly one barrier per lookahead of simulated time; adaptive ones
// skip barriers whenever cross-shard traffic is sparse). Always 0 in
// single-kernel mode, which has no barriers.
func (c *Coordinator) Rounds() uint64 { return c.rounds }

// fail tears down every shard kernel's parked procs and returns err.
func (c *Coordinator) fail(err error) error {
	for _, k := range c.kernels {
		k.shutdown()
	}
	return err
}

// blockedAll merges every shard's blocked-proc dump, sorted for stable
// reports.
func (c *Coordinator) blockedAll() []string {
	var blocked []string
	for _, k := range c.kernels {
		blocked = append(blocked, k.blockedDump()...)
	}
	sort.Strings(blocked)
	return blocked
}

func (c *Coordinator) watchdogErr(next string) *WatchdogError {
	e := &WatchdogError{Deadline: c.watchdogAt, Blocked: c.blockedAll(), NextEvent: next}
	if c.diag != nil {
		e.Diag = c.diag()
	}
	return e
}

func (c *Coordinator) deadlockErr() *DeadlockError {
	e := &DeadlockError{At: c.Now(), Blocked: c.blockedAll()}
	if c.diag != nil {
		e.Diag = c.diag()
	}
	return e
}
