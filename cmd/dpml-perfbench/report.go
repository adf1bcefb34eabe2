package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one reported number: the median of values when they are
// per-repeat host measurements, or an exact counter with no values.
type metric struct {
	name   string
	unit   string
	value  float64
	values []float64
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perRepeat is a host-time metric: f of every repeat, reported as the
// median.
func perRepeat(name, unit string, samples []*sample, f func(*sample) float64) metric {
	m := metric{name: name, unit: unit}
	for _, s := range samples {
		m.values = append(m.values, f(s))
	}
	m.value = median(m.values)
	return m
}

func exact(name, unit string, v float64) metric {
	return metric{name: name, unit: unit, value: v}
}

// totals sums a repeat's per-world counters; peaks take the maximum.
func totals(worlds []counters) counters {
	var t counters
	var util float64
	for _, c := range worlds {
		t.allreduces += c.allreduces
		t.elapsed += c.elapsed
		t.events += c.events
		t.switches += c.switches
		t.heapHighWater = max(t.heapHighWater, c.heapHighWater)
		t.rounds += c.rounds
		t.flowsStarted += c.flowsStarted
		t.flowsCompleted += c.flowsCompleted
		t.recomputes += c.recomputes
		t.netRecomputes += c.netRecomputes
		t.fastPath += c.fastPath
		t.maxComponents = max(t.maxComponents, c.maxComponents)
		t.netMessages += c.netMessages
		t.netBytes += c.netBytes
		t.memCopies += c.memCopies
		t.memBytes += c.memBytes
		t.nicMaxBacklog = max(t.nicMaxBacklog, c.nicMaxBacklog)
		util = max(util, math.Float64frombits(c.linkMaxUtilBits))
		for i, b := range c.tr.phaseBusy {
			t.tr.phaseBusy[i] += b
		}
		t.tr.sends += c.tr.sends
		t.tr.computeBytes += c.tr.computeBytes
		t.tr.copyBytes += c.tr.copyBytes
	}
	t.linkMaxUtilBits = math.Float64bits(util)
	return t
}

// simLatencyUS is the mean simulated time of one allreduce: each world's
// virtual makespan over its back-to-back count, averaged over worlds.
func simLatencyUS(wl *workload, worlds []counters) float64 {
	t := totals(worlds)
	return float64(t.elapsed) / 1e3 / float64(len(worlds)*wl.allreduces)
}

// endToEnd reports what a user of the simulator sees, from untraced
// repeats.
func endToEnd(wl *workload, plain []*sample) []metric {
	return []metric{
		perRepeat("allreduces_per_s", "1/s", plain, func(s *sample) float64 {
			return float64(s.attempted-s.failed) / s.spans[spanRun].Seconds()
		}),
		perRepeat("cpu_s", "s", plain, func(s *sample) float64 { return s.cpu.Seconds() }),
		perRepeat("setup_s", "s", plain, func(s *sample) float64 { return s.setup().Seconds() }),
		perRepeat("alloc_mb", "MB", plain, func(s *sample) float64 { return float64(s.allocB) / 1e6 }),
		exact("sim_latency_us", "sim_us", simLatencyUS(wl, plain[0].worlds)),
	}
}

// layerMetrics reports the per-layer numbers of a traced run: exact
// counters from the first traced repeat, and medians of the profile's
// per-layer self times and of the benchmark's spans.
func layerMetrics(plain, traced []*sample) []metric {
	t := totals(traced[0].worlds)
	self := func(b int) func(*sample) float64 {
		return func(s *sample) float64 { return s.layers[b].Seconds() }
	}
	simSelf := perRepeat("sim.self_s", "s", traced, self(bucketSim))
	fabricSelf := perRepeat("fabric.self_s", "s", traced, self(bucketFabric))
	ms := []metric{
		exact("sim.events", "count", float64(t.events)),
		exact("sim.context_switches", "count", float64(t.switches)),
		exact("sim.heap_high_water", "count", float64(t.heapHighWater)),
		exact("sim.rounds", "count", float64(t.rounds)),
		exact("sim.events_per_round", "ratio", ratio(float64(t.events), float64(t.rounds))),
		simSelf,
		exact("sim.ns_per_event", "ns", ratio(simSelf.value*1e9, float64(t.events))),
		perRepeat("runtime.sched_s", "s", traced, self(bucketSched)),
		perRepeat("runtime.gc_s", "s", traced, self(bucketGC)),
		perRepeat("runtime.memmove_s", "s", traced, self(bucketMemmove)),
		perRepeat("runtime.heap_peak_mb", "MB", traced, func(s *sample) float64 { return float64(s.heapPeak) / 1e6 }),
		exact("fabric.flows_started", "count", float64(t.flowsStarted)),
		exact("fabric.recomputes", "count", float64(t.recomputes)),
		exact("fabric.net_recomputes", "count", float64(t.netRecomputes)),
		exact("fabric.fast_path", "count", float64(t.fastPath)),
		exact("fabric.fast_path_ratio", "ratio", ratio(float64(t.fastPath), float64(t.flowsCompleted))),
		exact("fabric.max_components", "count", float64(t.maxComponents)),
		fabricSelf,
		exact("fabric.us_per_recompute", "us", ratio(fabricSelf.value*1e6, float64(t.recomputes))),
		exact("fabric.net_messages", "count", float64(t.netMessages)),
		exact("fabric.net_bytes", "bytes", float64(t.netBytes)),
		exact("fabric.mem_copies", "count", float64(t.memCopies)),
		exact("fabric.mem_bytes", "bytes", float64(t.memBytes)),
		exact("fabric.nic_max_backlog_ns", "sim_ns", float64(t.nicMaxBacklog)),
		exact("fabric.link_max_utilization", "ratio", math.Float64frombits(t.linkMaxUtilBits)),
		perRepeat("core.self_s", "s", traced, self(bucketCore)),
	}
	for i, name := range phaseNames {
		// Mean simulated time one rank spends in the phase per allreduce.
		ms = append(ms, exact("core.phase."+name+"_us", "sim_us", float64(t.tr.phaseBusy[i])/1e3/float64(t.allreduces)))
	}
	ms = append(ms,
		perRepeat("mpi.self_s", "s", traced, self(bucketMPI)),
		exact("mpi.messages", "count", float64(t.tr.sends)),
		exact("mpi.compute_bytes", "bytes", float64(t.tr.computeBytes)),
		exact("mpi.copy_bytes", "bytes", float64(t.tr.copyBytes)),
		perRepeat("other.self_s", "s", traced, self(bucketOther)),
	)
	for i, name := range spanNames {
		ms = append(ms, perRepeat(name, "s", traced, func(s *sample) float64 { return s.spans[i].Seconds() }))
	}
	for b, name := range bucketNames {
		ms = append(ms, perRepeat("share."+name, "ratio", traced, func(s *sample) float64 { return s.share(b) }))
	}
	ms = append(ms,
		perRepeat("profile.samples", "count", traced, func(s *sample) float64 { return float64(s.samples) }),
		exact("trace.overhead", "ratio", tracingOverhead(plain, traced)),
	)
	return ms
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// share is bucket b's part of the repeat's folded CPU time.
func (s *sample) share(b int) float64 {
	var total time.Duration
	for _, d := range s.layers {
		total += d
	}
	return ratio(float64(s.layers[b]), float64(total))
}

// tracingOverhead is how much longer World.Run took with the recorder
// attached and the profiler on, as a share of the untraced median.
func tracingOverhead(plain, traced []*sample) float64 {
	run := func(s *sample) float64 { return s.spans[spanRun].Seconds() }
	return perRepeat("", "", traced, run).value/perRepeat("", "", plain, run).value - 1
}

// writeShares prints the layer table of a traced run.
func writeShares(w io.Writer, traced, plain []*sample) {
	fmt.Fprintf(w, "CPU profile of World.Run, self time folded by layer (median of %d traced repeats):\n", len(traced))
	for b, name := range bucketNames {
		self := perRepeat("", "", traced, func(s *sample) float64 { return s.layers[b].Seconds() })
		share := perRepeat("", "", traced, func(s *sample) float64 { return s.share(b) })
		fmt.Fprintf(w, "  %-16s %9.3f s  %5.1f%%\n", name, self.value, 100*share.value)
	}
	fmt.Fprintf(w, "tracing overhead: World.Run took %+.1f%% longer traced (recorder + CPU profile) than untraced, medians of %d and %d repeats\n",
		100*tracingOverhead(plain, traced), len(traced), len(plain))
}
