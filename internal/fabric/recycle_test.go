package fabric

import (
	"fmt"
	"testing"

	"dpml/internal/sim"
	"dpml/internal/topology"
)

// flowObjects returns how many flow objects n has allocated: each one is
// either in n.active (live, or a tombstone awaiting compaction) or on the
// free list.
func flowObjects(n *FlowNet) int { return len(n.active) + len(n.free) }

// newestFlow returns the flow Start handed out last, and a complaint
// unless the object is nothing else: it must appear once in n.active and
// once in each of its links' lists. A flow object reused while still a
// tombstone would appear twice.
func newestFlow(n *FlowNet) (*flow, string) {
	f := n.active[len(n.active)-1]
	count := 0
	for _, g := range n.active {
		if g == f {
			count++
		}
	}
	if count != 1 {
		return f, fmt.Sprintf("new flow appears %d times in the active list", count)
	}
	for _, l := range f.links {
		count = 0
		for _, g := range l.flows {
			if g == f {
				count++
			}
		}
		if count != 1 {
			return f, fmt.Sprintf("new flow appears %d times in link %s", count, l.name)
		}
	}
	return f, ""
}

// TestFlowRecyclingSteadyState: shared-memory copies and network
// transfers in steady state draw their flow objects from the free list,
// so the objects allocated stay bounded by the concurrency while the
// flows started grow with the work.
func TestFlowRecyclingSteadyState(t *testing.T) {
	const procs, rounds = 4, 50
	t.Run("copies", func(t *testing.T) {
		k := sim.NewKernel()
		n := NewFlowNet(k)
		m := NewMemChannel(k, n, topology.ClusterA(), 0)
		for i := 0; i < procs; i++ {
			cross := i%2 == 1
			k.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
				for r := 0; r < rounds; r++ {
					m.Copy(p, cross, 64<<10)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if n.Stats.Started != procs*rounds {
			t.Fatalf("started %d flows, want %d", n.Stats.Started, procs*rounds)
		}
		if got := flowObjects(n); got > 2*procs {
			t.Fatalf("%d copies allocated %d flow objects, want <= %d", procs*rounds, got, 2*procs)
		}
	})
	t.Run("net", func(t *testing.T) {
		k, n, net := newTestNet(topology.ClusterB(), 4)
		k.Spawn("driver", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				var wg sim.WaitGroup
				wg.Add(procs)
				for i := 0; i < procs; i++ {
					src, dst := net.Endpoint(i, 0), net.Endpoint((i+1+r%3)%4, 0)
					net.StartTransfer(src, dst, 256<<10, wg.Done)
				}
				wg.Wait(p, "transfers")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if n.Stats.Started != procs*rounds {
			t.Fatalf("started %d flows, want %d", n.Stats.Started, procs*rounds)
		}
		if got := flowObjects(n); got > 2*procs {
			t.Fatalf("%d transfers allocated %d flow objects, want <= %d", procs*rounds, got, 2*procs)
		}
	})
}

// TestFastPathFlowNotReusedEarly: a flow whose completion took the fast
// path schedules no recompute, so it stays a tombstone in the active list
// and in its link's list. A flow started right after it, at the same
// instant, must get a different object; the tombstone becomes reusable
// only once the next recompute has compacted it out.
func TestFastPathFlowNotReusedEarly(t *testing.T) {
	const copies = 20
	k := sim.NewKernel()
	n := NewFlowNet(k)
	l := NewLink("mem", 10e9)
	var problem string
	k.Spawn("copier", func(p *sim.Proc) {
		var prev *flow
		for i := 0; i < copies && problem == ""; i++ {
			var f *flow
			p.Await("copy", func(wake func()) {
				n.Start(1<<20, 1e9, wake, l)
				f, problem = newestFlow(n)
			})
			switch {
			case problem != "":
			case f == prev:
				problem = fmt.Sprintf("copy %d reused the flow that completed at this instant", i)
			case !f.done:
				problem = fmt.Sprintf("copy %d: flow not done after its completion woke the proc", i)
			}
			prev = f
		}
	})
	err := k.Run()
	if problem != "" {
		t.Fatal(problem)
	}
	if err != nil {
		t.Fatal(err)
	}
	if n.Stats.FastPath != copies {
		t.Fatalf("%d of %d completions took the fast path, want all", n.Stats.FastPath, copies)
	}
	if got := flowObjects(n); got != 2 {
		t.Fatalf("%d back-to-back flows allocated %d flow objects, want 2", copies, got)
	}
}
