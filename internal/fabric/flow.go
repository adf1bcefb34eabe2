// Package fabric implements the communication substrate of the simulated
// clusters: a flow-level model of the inter-node interconnect (links with
// max-min fair sharing, per-flow rate caps, NIC injection gaps, wire
// latency), an intra-node shared-memory channel, and a SHArP in-network
// aggregation tree.
//
// The model is fluid: a transfer is a flow with a remaining byte count
// that drains at a rate decided by water-filling across the links it
// traverses. Whenever the flow population changes, rates are recomputed
// and completion events rescheduled. This reproduces, from first
// principles, the three throughput regimes the paper measures in Figure 1:
// overhead-bound (aggregate rate grows with concurrency), transition, and
// bandwidth-bound (aggregate rate flat).
package fabric

import (
	"fmt"
	"math"

	"dpml/internal/sim"
)

// Link is a capacity-constrained resource (one direction of a NIC port, a
// fat-tree core stage, or a node's memory system). A link belongs to
// whichever kernel's FlowNet drives it — the network LP for wire
// links, a node LP for memory links — so class ownership is per
// instance, not per type.
//
//dpml:owner shared
type Link struct {
	name      string
	capacity  float64 // bytes/sec
	flows     []*flow // live flows plus tombstones awaiting compaction
	live      int     // live entries in flows
	moved     float64 // total bytes carried (for utilization reports)
	busy      sim.Duration
	busyUntil sim.Time // high-water mark of charged busy time

	// bottleneck records whether the link was saturated by the last
	// water-fill; it gates the incremental completion fast path.
	bottleneck bool

	// comp labels the live component the link belongs to, as of the last
	// recompute that reached it (0: it carried no live flow). Labels are
	// unique among live components, which is how recompute keeps the
	// component count without rediscovering untouched components.
	comp int32

	// water-filling scratch state, valid only within one recompute
	mark     uint64
	share    float64 // this iteration's fair share (residual / unfrozen)
	unfrozen int
	binds    bool // marked binding in the current fill iteration
}

// NewLink returns a link with the given capacity in bytes/sec.
func NewLink(name string, capacity float64) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("fabric: link %q capacity %g", name, capacity))
	}
	return &Link{name: name, capacity: capacity}
}

// Name returns the link's label.
func (l *Link) Name() string { return l.name }

// Capacity returns the link's capacity in bytes/sec.
func (l *Link) Capacity() float64 { return l.capacity }

// ActiveFlows returns the number of flows currently crossing the link.
func (l *Link) ActiveFlows() int { return l.live }

// BytesMoved returns the total bytes the link has carried.
func (l *Link) BytesMoved() int64 { return int64(l.moved) }

// BusyTime returns the total virtual time the link spent with at least
// one active flow (accumulated at recompute granularity).
func (l *Link) BusyTime() sim.Duration { return l.busy }

// chargeBusy extends the link's busy accounting through [from, to),
// clipping against the high-water mark so overlapping charges (multiple
// flows settling over the same span) count once.
func (l *Link) chargeBusy(from, to sim.Time) {
	if to <= l.busyUntil {
		return
	}
	if from < l.busyUntil {
		from = l.busyUntil
	}
	l.busy += to.Sub(from)
	l.busyUntil = to
}

// Utilization returns BytesMoved / (capacity * elapsed), the fraction of
// the link's capacity used over the given span.
func (l *Link) Utilization(elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return l.moved / (l.capacity * elapsed.Seconds())
}

func (l *Link) addFlow(f *flow) {
	l.flows = append(l.flows, f)
	l.live++
}

// compact drops tombstoned (completed) flows, preserving the insertion
// order of the survivors. Completion marks a flow done in O(1) instead of
// linearly scanning every link it crossed; the next water-fill — which
// walks these lists anyway — compacts them here, so removal is O(1)
// amortized while iteration order (and therefore every downstream
// floating-point sum and event sequence number) stays bit-identical to
// eager ordered removal.
func (l *Link) compact() {
	if len(l.flows) == l.live {
		return
	}
	flows := l.flows[:0]
	for _, f := range l.flows {
		if !f.done {
			flows = append(flows, f)
		}
	}
	for i := len(flows); i < len(l.flows); i++ {
		l.flows[i] = nil
	}
	l.flows = flows
}

// flow is one transfer in flight; like Link, it is owned by whichever
// kernel's FlowNet it runs under.
//
//dpml:owner shared
type flow struct {
	links      []*Link
	cap        float64 // per-flow rate ceiling, bytes/sec
	remaining  float64 // bytes left to move
	rate       float64
	prevRate   float64 // rate before the current recompute
	lastSettle sim.Time
	onDone     func()
	event      *sim.Event
	frozen     bool  // scratch state for water-filling
	done       bool  // completed; awaiting compaction
	comp       int32 // dense id of its affected component within a recompute; -1 otherwise
}

// component is one connected component of the flow-link bipartite graph:
// a set of flows and the links they (transitively) share. Max-min fair
// rates in one component are independent of every other component — the
// only exact decomposition of the fill — so components are the unit of
// incremental recomputation. Flow and link lists preserve the canonical
// global orders (n.active order; first-touch link order), so the fill's
// floating-point arithmetic does not depend on how components are grouped
// or which of them a recompute refills.
type component struct {
	flows []*flow
	links []*Link
}

// FlowNet owns the set of active flows and keeps their rates max-min fair.
// All methods must be called from simulation context (a running proc or an
// event callback) of the kernel it was built with — the network LP for
// the wire FlowNet, a node LP for each memory FlowNet.
//
//dpml:owner shared
type FlowNet struct {
	k      *sim.Kernel
	active []*flow // live flows plus tombstones awaiting compaction
	live   int     // live entries in active
	dirty  bool
	gen    uint64 // water-filling generation stamp
	// touched lists the links whose flows or capacity changed since the
	// last recompute (duplicates allowed); only their components refill.
	touched []*Link
	// labelLinks counts the links carrying each component label (see
	// Link.comp; index 0 is the unused "no component" label), and
	// freeLabels holds labels no link carries any more.
	labelLinks []int32
	freeLabels []int32
	comps      []component // scratch: per-component flow/link buckets, reused
	queue      []*Link     // scratch: component search frontier
	refill     []*flow     // scratch: refilled flows in n.active order
	// Stats counts scheduler work for tests and reports.
	Stats struct {
		Started   uint64
		Completed uint64
		Recompute uint64
		// FastPath counts completions that skipped the settle-and-refill
		// recompute because no link the flow crossed was a bottleneck.
		FastPath uint64
		// MaxComponents is the largest number of independent link
		// components live at any single recompute (1 means the whole
		// net is one coupled component).
		MaxComponents uint64
		// Refilled sums, over recomputes, the flows whose component was
		// refilled: the water-fill work actually done.
		Refilled uint64
	}
}

// NewFlowNet returns an empty flow scheduler bound to the kernel.
func NewFlowNet(k *sim.Kernel) *FlowNet {
	return &FlowNet{k: k, labelLinks: []int32{0}}
}

// Active returns the number of in-flight flows.
func (n *FlowNet) Active() int { return n.live }

// Start launches a flow of bytes over the given links with a per-flow rate
// ceiling, invoking onDone in kernel context when the last byte drains.
// Zero-byte flows complete immediately (still asynchronously, at the
// current instant). Rate recomputation is batched: flows started at the
// same instant trigger one water-filling pass.
func (n *FlowNet) Start(bytes int64, rateCap float64, onDone func(), links ...*Link) {
	if rateCap <= 0 {
		panic("fabric: flow rate cap must be positive")
	}
	if len(links) == 0 {
		panic("fabric: flow needs at least one link")
	}
	if bytes <= 0 {
		n.k.After(0, onDone)
		return
	}
	f := &flow{
		links:      links,
		cap:        rateCap,
		remaining:  float64(bytes),
		lastSettle: n.k.Now(),
		onDone:     onDone,
		comp:       -1,
	}
	for _, l := range links {
		l.addFlow(f)
	}
	n.touched = append(n.touched, links...)
	n.active = append(n.active, f)
	n.live++
	n.Stats.Started++
	n.markDirty()
}

// SetLinkCapacity changes l's capacity in place and re-water-fills every
// in-flight flow (batched with any other changes at this instant, like a
// Start). This is the fault layer's link-degradation hook: a congested or
// flapping link slows flows already crossing it mid-transfer, exactly as
// a real capacity change would. Must be called from simulation context.
// The completion fast path stays sound: the net is dirty until the refill
// event fires, so no completion trusts the stale bottleneck flags.
func (n *FlowNet) SetLinkCapacity(l *Link, capacity float64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("fabric: SetLinkCapacity(%q, %g)", l.name, capacity))
	}
	if capacity == l.capacity { //dpml:allow floateq -- no-op guard: any real change re-waterfills
		return
	}
	l.capacity = capacity
	n.touched = append(n.touched, l)
	n.markDirty()
}

func (n *FlowNet) markDirty() {
	if n.dirty {
		return
	}
	n.dirty = true
	n.k.After(0, func() {
		n.dirty = false
		n.recompute()
	})
}

func (n *FlowNet) complete(f *flow) {
	// Credit the final, not-yet-settled leg of the transfer.
	now := n.k.Now()
	fast := !n.dirty
	// Record the links even on the fast path: the next recompute must
	// compact them and refill their component, exactly as a global refill
	// would.
	n.touched = append(n.touched, f.links...)
	for _, l := range f.links {
		l.moved += f.remaining
		l.chargeBusy(f.lastSettle, now)
		l.live--
		if l.bottleneck {
			fast = false
		}
	}
	f.remaining = 0
	f.event = nil
	// O(1) removal: tombstone the flow; the next water-fill compacts it
	// out of n.active and each link's list in order-preserving passes.
	f.done = true
	n.live--
	n.Stats.Completed++
	done := f.onDone
	f.onDone = nil
	if fast {
		// Incremental fast path: every link this flow crossed had spare
		// capacity after the last water-fill, so no surviving flow was
		// throttled by them — the departure cannot raise anyone's rate,
		// and the full settle-and-refill pass is skipped. (Link capacity
		// in use only decreases between fills, so the flags can only be
		// conservatively stale: a flagged bottleneck forces a recompute
		// it might not strictly need, never the reverse.)
		n.Stats.FastPath++
	} else {
		n.markDirty()
	}
	if done != nil {
		done()
	}
}

// recompute settles progress, then water-fills and reschedules only the
// components whose flows or link capacities changed since the last
// recompute. A component's fill reads nothing but its own flows' caps,
// its links' capacities and their list order, so a component nothing
// touched already holds exactly the rates a global refill would give it,
// and its completion events stay valid.
func (n *FlowNet) recompute() {
	n.Stats.Recompute++
	n.compact()
	count := n.affectedComponents()
	if live := uint64(n.liveComponents()); live > n.Stats.MaxComponents {
		n.Stats.MaxComponents = live
	}
	if n.live == 0 {
		return
	}
	now := n.k.Now()
	n.settle(now)
	n.Stats.Refilled += uint64(len(n.refill))
	for i := 0; i < count; i++ {
		n.fillComponent(&n.comps[i])
	}
	n.reschedule(now)
}

// compact drops tombstoned flows from the active list, preserving the
// insertion order of survivors (see Link.compact for why order matters).
func (n *FlowNet) compact() {
	if len(n.active) == n.live {
		return
	}
	active := n.active[:0]
	for _, f := range n.active {
		if !f.done {
			active = append(active, f)
		}
	}
	for i := len(active); i < len(n.active); i++ {
		n.active[i] = nil
	}
	n.active = active
}

// affectedComponents finds the connected components of the flow-link
// bipartite graph that now contain a touched link, by breadth-first search
// over Link.flows and flow.links, and gives their flows dense ids
// (flow.comp) in discovery order. Returns the component count. An arrival
// merges components and a departure splits one; either way the search
// finds the components as they are now. Links are compacted here, once
// per recompute that reaches them (see Link.compact): every tombstone
// comes from a completion, which touched its links.
//
// It also keeps the live component count: every link of a component that
// held a touched link is reached (any path from it to a touched link
// either survives or ends at a departed flow, whose links are touched),
// so relabelling the reached links retires exactly the old components
// the change dissolved.
func (n *FlowNet) affectedComponents() int {
	n.gen++
	count := 0
	for _, t := range n.touched {
		if t.mark == n.gen {
			continue
		}
		t.mark = n.gen
		t.compact()
		if t.live == 0 {
			n.relabel(t, 0)
			continue
		}
		id := int32(count)
		count++
		if int(id) == len(n.comps) {
			n.comps = append(n.comps, component{})
		}
		n.comps[id].flows = n.comps[id].flows[:0]
		n.comps[id].links = n.comps[id].links[:0]
		label := n.newLabel()
		queue := append(n.queue[:0], t)
		for i := 0; i < len(queue); i++ {
			l := queue[i]
			n.relabel(l, label)
			for _, f := range l.flows {
				if f.comp >= 0 {
					continue
				}
				f.comp = id
				for _, fl := range f.links {
					if fl.mark != n.gen {
						fl.mark = n.gen
						fl.compact()
						queue = append(queue, fl)
					}
				}
			}
		}
		n.queue = queue
	}
	n.touched = n.touched[:0]
	return count
}

// liveComponents returns the number of connected components with live
// flows as of the last recompute: the labels some link carries.
func (n *FlowNet) liveComponents() int {
	return len(n.labelLinks) - 1 - len(n.freeLabels)
}

// newLabel returns a component label no link carries.
func (n *FlowNet) newLabel() int32 {
	if k := len(n.freeLabels); k > 0 {
		label := n.freeLabels[k-1]
		n.freeLabels = n.freeLabels[:k-1]
		return label
	}
	n.labelLinks = append(n.labelLinks, 0)
	return int32(len(n.labelLinks) - 1)
}

// relabel moves l to component label (0: none), freeing its old label
// once no link carries it.
func (n *FlowNet) relabel(l *Link, label int32) {
	if old := l.comp; old != 0 {
		if n.labelLinks[old]--; n.labelLinks[old] == 0 {
			n.freeLabels = append(n.freeLabels, old)
		}
	}
	l.comp = label
	if label != 0 {
		n.labelLinks[label]++
	}
}

// settle credits every live flow's progress up to now in one pass over
// n.active — global and in n.active order, so the float sums behind
// remaining, Link.moved and chargeBusy are the same whichever components
// refill — and buckets the affected components' flows in n.active order
// and their links in first-touch order, the canonical fill order. The
// bucketed flows, in n.active order, become n.refill.
func (n *FlowNet) settle(now sim.Time) {
	n.gen++
	refill := n.refill[:0]
	for _, f := range n.active {
		if dt := now.Sub(f.lastSettle); dt > 0 {
			moved := f.rate * dt.Seconds()
			if moved > f.remaining {
				moved = f.remaining
			}
			f.remaining -= moved
			for _, l := range f.links {
				l.moved += moved
				l.chargeBusy(f.lastSettle, now)
			}
		}
		f.lastSettle = now
		if f.comp < 0 {
			continue
		}
		c := &n.comps[f.comp]
		c.flows = append(c.flows, f)
		for _, l := range f.links {
			if l.mark != n.gen {
				l.mark = n.gen
				l.unfrozen = 0
				c.links = append(c.links, l)
			}
			l.unfrozen++
		}
		f.frozen = false
		f.prevRate = f.rate
		f.rate = 0
		refill = append(refill, f)
	}
	n.refill = refill
}

// reschedule refreshes the refilled flows' completion events, in n.active
// order so events are keyed in the same sequence as a global pass would
// key them, and clears their component ids. A flow's event is pending
// from the first fill after Start until complete nils it, so re-fitting
// is an in-place Kernel.Reschedule — no cancelled tombstones pile up in
// the event heap and the completion closure is allocated once per flow,
// not once per rate change.
func (n *FlowNet) reschedule(now sim.Time) {
	for _, f := range n.refill {
		f.comp = -1
		// An unchanged rate means the previously scheduled completion
		// time is still exact (fluid drain is linear); skipping the
		// reschedule avoids re-keying events the refill left untouched.
		if f.event != nil && f.rate == f.prevRate { //dpml:allow floateq -- bit-identical rate keeps the scheduled completion exact
			continue
		}
		d := sim.TransferTime(int64(math.Ceil(f.remaining)), f.rate)
		at := now.Add(d)
		if f.event != nil {
			if f.event.When() != at {
				n.k.Reschedule(f.event, at)
			}
			continue
		}
		ff := f
		f.event = n.k.At(at, func() { n.complete(ff) })
	}
}

// fillComponent water-fills rates and refreshes bottleneck flags for one
// settled component. It touches only c's flows and links: every flow
// belongs to exactly one component and every link's flows all share that
// component.
func (n *FlowNet) fillComponent(c *component) {
	n.waterFill(c)

	// Record which links this fill saturated. Completions on links with
	// spare capacity take the incremental fast path (see complete). The
	// tolerance errs toward "bottleneck": misflagging a saturated link as
	// free would skip a required recompute, while the reverse only costs
	// a redundant one.
	for _, l := range c.links {
		used := 0.0
		for _, f := range l.flows {
			used += f.rate
		}
		l.bottleneck = l.capacity-used <= l.capacity*1e-6
	}
}

// waterFill assigns max-min fair rates within one component. Each
// iteration recomputes every link's fair share from scratch — residual
// capacity summed over the link's frozen flows in list order, divided by
// its unfrozen count — then freezes the tightest constraint: flows whose
// own cap binds first, otherwise the flows of every link whose share sits
// at the minimum, each frozen at its own link's share.
//
// The from-scratch share and freeze-at-own-share rules are what make the
// fill canonical: a frozen rate is always either f.cap or a share computed
// purely from that link's flow list, never a value imported from another
// link or component. The minimum share only decides *when* a flow freezes,
// not the value it freezes at, so running a component alone produces
// bit-identical rates to running it inside a global fill (up to exact-tie
// grouping, which the tolerances below make consistent either way).
// Symmetric collective traffic typically converges in one or two
// iterations.
func (n *FlowNet) waterFill(c *component) {
	unfrozen := len(c.flows)
	const eps = 1e-9
	for unfrozen > 0 {
		// Recompute each link's fair share and find the tightest.
		share := math.Inf(1)
		for _, l := range c.links {
			if l.unfrozen == 0 {
				continue
			}
			used := 0.0
			for _, f := range l.flows {
				if f.frozen {
					used += f.rate
				}
			}
			r := l.capacity - used
			if r < 0 {
				r = 0
			}
			l.share = r / float64(l.unfrozen)
			if l.share < share {
				share = l.share
			}
		}
		// Flows whose own cap binds before the link share freeze at
		// their cap, freeing capacity for the rest.
		capFroze := false
		for _, f := range c.flows {
			if !f.frozen && f.cap <= share+eps {
				f.frozen = true
				f.rate = f.cap
				for _, l := range f.links {
					l.unfrozen--
				}
				unfrozen--
				capFroze = true
			}
		}
		if capFroze {
			continue
		}
		// Otherwise bottleneck links bind. Snapshot the binding set
		// before freezing anything — freezing mutates unfrozen counts,
		// and membership must not depend on within-pass order — then
		// freeze each binding link's flows at that link's own share.
		for _, l := range c.links {
			l.binds = l.unfrozen > 0 && l.share <= share*(1+1e-9)+eps
		}
		froze := false
		for _, l := range c.links {
			if !l.binds {
				continue
			}
			for _, f := range l.flows {
				if !f.frozen {
					f.frozen = true
					f.rate = l.share
					for _, fl := range f.links {
						fl.unfrozen--
					}
					unfrozen--
					froze = true
				}
			}
		}
		if !froze {
			// Numerically impossible, but never spin.
			panic("fabric: water-filling found no binding constraint")
		}
	}
}
