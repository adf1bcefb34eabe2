package fabric

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"dpml/internal/sim"
)

// refFill is an independent reimplementation of the canonical max-min
// water-fill on plain slices, always run as ONE global fill with every
// flow and link together, in global order. It exists so the production
// per-component fill can be checked against the mathematical definition
// it claims to decompose: partitioning into connected components must
// not change a single bit of any rate.
//
// caps[i] is flow i's rate ceiling; routes[i] lists the link indices
// flow i crosses; capacity[l] is link l's capacity. Returns the max-min
// fair rates.
func refFill(caps []float64, routes [][]int, capacity []float64) []float64 {
	nf, nl := len(caps), len(capacity)
	rates := make([]float64, nf)
	frozen := make([]bool, nf)
	// Per-link flow lists in global flow order, like Link.flows.
	flowsOn := make([][]int, nl)
	unfrozen := make([]int, nl)
	for i, r := range routes {
		for _, l := range r {
			flowsOn[l] = append(flowsOn[l], i)
			unfrozen[l]++
		}
	}
	share := make([]float64, nl)
	binds := make([]bool, nl)
	left := nf
	const eps = 1e-9
	for left > 0 {
		min := math.Inf(1)
		for l := 0; l < nl; l++ {
			if unfrozen[l] == 0 {
				continue
			}
			used := 0.0
			for _, i := range flowsOn[l] {
				if frozen[i] {
					used += rates[i]
				}
			}
			r := capacity[l] - used
			if r < 0 {
				r = 0
			}
			share[l] = r / float64(unfrozen[l])
			if share[l] < min {
				min = share[l]
			}
		}
		capFroze := false
		for i := 0; i < nf; i++ {
			if !frozen[i] && caps[i] <= min+eps {
				frozen[i] = true
				rates[i] = caps[i]
				for _, l := range routes[i] {
					unfrozen[l]--
				}
				left--
				capFroze = true
			}
		}
		if capFroze {
			continue
		}
		for l := 0; l < nl; l++ {
			binds[l] = unfrozen[l] > 0 && share[l] <= min*(1+1e-9)+eps
		}
		froze := false
		for l := 0; l < nl; l++ {
			if !binds[l] {
				continue
			}
			for _, i := range flowsOn[l] {
				if !frozen[i] {
					frozen[i] = true
					rates[i] = share[l]
					for _, ll := range routes[i] {
						unfrozen[ll]--
					}
					left--
					froze = true
				}
			}
		}
		if !froze {
			panic("refFill: no binding constraint")
		}
	}
	return rates
}

// refillNow runs the recompute a pending markDirty event would run,
// without running the kernel, so a test can inspect the rates it leaves.
func refillNow(n *FlowNet) {
	if n.dirty {
		n.dirty = false
		n.recompute()
	}
}

// checkGlobalFill checks the state a recompute left against an
// independent global view of every live flow: each rate must equal, bit
// for bit, refFill run over all live flows at once (links indexed in
// first-touch order over n.active, the canonical fill order); the live
// component count must equal a from-scratch count; and every loaded
// link's bottleneck flag must match its current load.
func checkGlobalFill(t *testing.T, n *FlowNet, what string) {
	t.Helper()
	index := map[*Link]int{}
	var links []*Link
	var capacity, caps []float64
	var routes [][]int
	var live []*flow
	for _, f := range n.active {
		if f.done {
			continue
		}
		live = append(live, f)
		caps = append(caps, f.cap)
		var route []int
		for _, l := range f.links {
			i, ok := index[l]
			if !ok {
				i = len(links)
				index[l] = i
				links = append(links, l)
				capacity = append(capacity, l.capacity)
			}
			route = append(route, i)
		}
		routes = append(routes, route)
	}
	want := refFill(caps, routes, capacity)
	for i, f := range live {
		if math.Float64bits(f.rate) != math.Float64bits(want[i]) {
			t.Fatalf("%s: flow %d of %d rate %v, want %v (diff %g)", what, i, len(live), f.rate, want[i], f.rate-want[i])
		}
	}
	if got, want := n.liveComponents(), countComponents(routes, len(links)); got != want {
		t.Fatalf("%s: %d live components tracked, want %d", what, got, want)
	}
	for _, l := range links {
		used := 0.0
		for _, f := range l.flows {
			if !f.done {
				used += f.rate
			}
		}
		if want := l.capacity-used <= l.capacity*1e-6; l.bottleneck != want {
			t.Fatalf("%s: link %s bottleneck=%v, want %v", what, l.name, l.bottleneck, want)
		}
	}
}

// countComponents counts the connected components of the flow-link graph
// given by routes over nl links, from scratch.
func countComponents(routes [][]int, nl int) int {
	parent := make([]int, nl)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	count := nl
	for _, r := range routes {
		for _, l := range r[1:] {
			if a, b := find(r[0]), find(l); a != b {
				parent[a] = b
				count--
			}
		}
	}
	return count
}

// TestPartitionedFillMatchesGlobalFill generates randomized topologies —
// many links of random capacity, flows crossing random link subsets with
// random caps — and checks that the production component-partitioned fill
// produces rates EXACTLY equal (==, not approximately) to the single
// global reference fill. Random populations fragment into many
// components, so this directly exercises the decomposition the
// incremental refill relies on.
func TestPartitionedFillMatchesGlobalFill(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(mod int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % mod
	}
	maxComps := 0
	for trial := 0; trial < 80; trial++ {
		n := NewFlowNet(sim.NewKernel())
		nLinks := 2 + next(30)
		capacity := make([]float64, nLinks)
		links := make([]*Link, nLinks)
		for l := range links {
			capacity[l] = float64(1+next(40)) * 0.25e9
			links[l] = NewLink(fmt.Sprintf("t%d.l%d", trial, l), capacity[l])
		}
		nFlows := 1 + next(120)
		caps := make([]float64, nFlows)
		routes := make([][]int, nFlows)
		for i := 0; i < nFlows; i++ {
			caps[i] = float64(1+next(16)) * 0.125e9
			var route []*Link
			used := map[int]bool{}
			for j := 0; j <= next(3); j++ {
				li := next(nLinks)
				if used[li] {
					continue
				}
				used[li] = true
				route = append(route, links[li])
				routes[i] = append(routes[i], li)
			}
			if len(route) == 0 {
				route = append(route, links[i%nLinks])
				routes[i] = append(routes[i], i%nLinks)
			}
			n.Start(1e6, caps[i], nil, route...)
		}
		refillNow(n)

		comps := n.liveComponents()
		if comps > maxComps {
			maxComps = comps
		}
		want := refFill(caps, routes, capacity)
		for i, f := range n.active {
			// The decomposition claim is bitwise equality, not tolerance.
			if math.Float64bits(f.rate) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (%d comps): flow %d rate %v, want %v (diff %g)",
					trial, comps, i, f.rate, want[i], f.rate-want[i])
			}
		}
	}
	if maxComps < 4 {
		t.Fatalf("largest trial had %d components; generator must produce fragmented topologies", maxComps)
	}
}

// TestIncrementalFillMatchesGlobalFill drives random sequences of flow
// arrivals, completions (through both the refill and the fast path) and
// link-capacity changes on fragmented topologies, batching a random
// number of changes into each recompute. A recompute refills only the
// components those changes touched, so after every one the rates of ALL
// live flows — refilled or left alone — must equal a global reference
// fill bit for bit.
func TestIncrementalFillMatchesGlobalFill(t *testing.T) {
	rng := uint64(0x2545f4914f6cdd1d)
	next := func(mod int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % mod
	}
	var checks, fast, refilled, full uint64
	maxComps := 0
	for trial := 0; trial < 40; trial++ {
		n := NewFlowNet(sim.NewKernel())
		nLinks := 4 + next(40)
		links := make([]*Link, nLinks)
		for l := range links {
			links[l] = NewLink(fmt.Sprintf("t%d.l%d", trial, l), float64(1+next(40))*0.25e9)
		}
		for op := 0; op < 300; op++ {
			switch r := next(20); {
			case r < 9 || n.live == 0:
				var route []*Link
				used := map[int]bool{}
				for j := 0; j <= next(3); j++ {
					if li := next(nLinks); !used[li] {
						used[li] = true
						route = append(route, links[li])
					}
				}
				n.Start(1<<20, float64(1+next(16))*0.125e9, nil, route...)
			case r < 17:
				// Complete a random live flow, as its completion event would.
				i := next(len(n.active))
				for n.active[i].done {
					i = (i + 1) % len(n.active)
				}
				n.complete(n.active[i])
			default:
				n.SetLinkCapacity(links[next(nLinks)], float64(1+next(40))*0.25e9)
			}
			if next(3) > 0 {
				continue
			}
			before := n.Stats.Recompute
			refillNow(n)
			if n.Stats.Recompute == before {
				continue
			}
			checkGlobalFill(t, n, fmt.Sprintf("trial %d op %d", trial, op))
			checks++
			full += uint64(n.live)
			if c := n.liveComponents(); c > maxComps {
				maxComps = c
			}
		}
		fast += n.Stats.FastPath
		refilled += n.Stats.Refilled
	}
	t.Logf("%d checked recomputes refilled %d of %d live flows; %d fast-path completions; up to %d components",
		checks, refilled, full, fast, maxComps)
	if checks < 1000 || fast == 0 || maxComps < 4 {
		t.Fatalf("weak coverage: %d checked recomputes, %d fast-path completions, at most %d components",
			checks, fast, maxComps)
	}
	if refilled >= full {
		t.Fatalf("refilled %d flows over the checked recomputes, a global refill would do %d: nothing was skipped", refilled, full)
	}
}

// TestArrivalRefillsOnlyItsComponent: 64 disjoint links with three flows
// each are 64 components. One arrival on one link must refill exactly
// that link's four flows, while all 64 components stay live.
func TestArrivalRefillsOnlyItsComponent(t *testing.T) {
	k := sim.NewKernel()
	n := NewFlowNet(k)
	links := make([]*Link, 64)
	for i := range links {
		links[i] = NewLink(fmt.Sprintf("l%d", i), 1e9)
	}
	k.Spawn("driver", func(p *sim.Proc) {
		var wg sim.WaitGroup
		start := func(l *Link) {
			wg.Add(1)
			n.Start(1<<30, 10e9, func() { wg.Done() }, l)
		}
		for _, l := range links {
			for j := 0; j < 3; j++ {
				start(l)
			}
		}
		p.Sleep(1)
		if n.Stats.Refilled != 192 || n.Stats.MaxComponents != 64 {
			t.Errorf("initial fill: Refilled=%d MaxComponents=%d, want 192 and 64",
				n.Stats.Refilled, n.Stats.MaxComponents)
		}
		start(links[17])
		p.Sleep(1)
		if got := n.Stats.Refilled - 192; got != 4 {
			t.Errorf("one arrival refilled %d flows, want 4 (its own component)", got)
		}
		if n.Stats.MaxComponents != 64 {
			t.Errorf("MaxComponents=%d after the arrival, want 64", n.Stats.MaxComponents)
		}
		wg.Wait(p, "flows")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFillWorkerCountInvariance runs a full simulation — hundreds of
// flows started and completing across virtual time in many independent
// components, with one link degraded and restored mid-run — and digests
// every completion instant. The digest is pinned: any change to how
// recompute decides what to refill must reproduce it, since incremental
// refill is exact. This pins it end to end through recompute,
// reschedule, the completion fast path and in-place capacity changes.
func TestFillWorkerCountInvariance(t *testing.T) {
	const want = "273082aab51c00815fdaf1f707743034ea1d9c1846e3b14b30c9260229bb10ea"
	rng := uint64(7)
	next := func(mod int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % mod
	}
	k := sim.NewKernel()
	n := NewFlowNet(k)
	const nLinks = 40
	links := make([]*Link, nLinks)
	for l := range links {
		links[l] = NewLink(fmt.Sprintf("l%d", l), float64(1+next(8))*1e9)
	}
	// Two private links carry bursts of identical cap-bound flows that
	// finish at one instant, so the digest also pins the order in which
	// same-instant completions were keyed.
	private := []*Link{NewLink("pa", 8e9), NewLink("pb", 8e9)}
	h := sha256.New()
	k.Spawn("driver", func(p *sim.Proc) {
		var wg sim.WaitGroup
		const nFlows = 300
		wg.Add(nFlows + 8)
		for i := 0; i < nFlows; i++ {
			if i == 60 {
				for j := 0; j < 8; j++ {
					id := uint64(1000 + j)
					n.Start(1<<20, 1e9, func() {
						var b [16]byte
						binary.LittleEndian.PutUint64(b[:8], id)
						binary.LittleEndian.PutUint64(b[8:], uint64(k.Now()))
						h.Write(b[:])
						wg.Done()
					}, private[j%2])
				}
			}
			route := []*Link{links[next(nLinks)]}
			if extra := next(nLinks); extra != 0 && links[extra] != route[0] {
				route = append(route, links[extra])
			}
			id := uint64(i)
			n.Start(int64(1+next(1<<22)), float64(1+next(10))*0.5e9, func() {
				var b [16]byte
				binary.LittleEndian.PutUint64(b[:8], id)
				binary.LittleEndian.PutUint64(b[8:], uint64(k.Now()))
				h.Write(b[:])
				wg.Done()
			}, route...)
			// Stagger start instants so flows overlap in shifting sets.
			if i%7 == 0 {
				p.Sleep(sim.Duration(1 + next(50_000)))
			}
			// Degrade, then restore, one link mid-run: flows already
			// crossing it are re-water-filled in place.
			switch i {
			case 120:
				n.SetLinkCapacity(links[3], 0.25e9)
			case 210:
				n.SetLinkCapacity(links[3], 4e9)
			}
		}
		wg.Wait(p, "flows")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Link accounting sums every settled leg, so it pins the settle
	// instants too.
	for _, l := range append(links, private...) {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(l.moved))
		binary.LittleEndian.PutUint64(b[8:], uint64(l.busy))
		h.Write(b[:])
	}
	if n.Stats.MaxComponents < 2 {
		t.Fatalf("MaxComponents=%d, workload must fragment", n.Stats.MaxComponents)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
