// Command dpml-perfbench is the repository benchmark. It builds each
// workload through the simulator's public calls, times those calls from
// outside, checks every output, and prints each metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones from a traced run. See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dpml/internal/mpi"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpml-perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "input seed; only verified-64 has seeded inputs")
	seconds := fs.Int("seconds", 10, "run repeats until this many seconds have passed (at least one repeat)")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	allreduces := fs.Int("allreduces", 0, "back-to-back allreduces per world on a phantom workload (0: the workload's own count)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadByName(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "dpml-perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "dpml-perfbench: -seconds must be at least 1")
		return 2
	case *traceMode != 0 && *traceMode != 1:
		fmt.Fprintln(stderr, "dpml-perfbench: -trace must be 0 or 1")
		return 2
	case *allreduces < 0 || (*allreduces > 0 && wl.real):
		fmt.Fprintln(stderr, "dpml-perfbench: -allreduces takes a positive count, on a phantom workload only (verified-64 reduces its real vectors in place once per design)")
		return 2
	}
	if *allreduces > 0 {
		wl.allreduces = *allreduces
	}

	var orc *oracle
	if wl.real {
		orc = newOracle(*seed, wl.nodes*wl.ppn, wl.bytes/wl.dtype.Size())
	}
	traced := *traceMode == 1
	var plain, withTrace []*sample
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	for len(plain) == 0 || time.Now().Before(deadline) {
		s, err := wl.repeat(orc, false)
		if err != nil {
			fmt.Fprintf(stderr, "dpml-perfbench: %v\n", err)
			return 1
		}
		plain = append(plain, s)
		if traced {
			s, err := wl.repeat(orc, true)
			if err != nil {
				fmt.Fprintf(stderr, "dpml-perfbench: %v\n", err)
				return 1
			}
			withTrace = append(withTrace, s)
		}
	}

	all := append(append([]*sample{}, plain...), withTrace...)
	res := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, s := range all {
		res.Attempted += s.attempted
		res.Failed += s.failed
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if msg := repeatCheck(all); msg != "" {
		fmt.Fprintf(stderr, "dpml-perfbench: deterministic counters differ between repeats: %s\n", msg)
		res.Correct = false
	}

	fmt.Fprintf(stdout, "workload %s: %d ranks (%dx%d), %d design(s), %d back-to-back allreduce(s) per world, %d-byte %s vectors, shards=%d, netshards=%d\n",
		wl.name, wl.nodes*wl.ppn, wl.nodes, wl.ppn, len(wl.designs), wl.allreduces, wl.bytes, wl.dtype, shards, mpi.DefaultNetShards())
	if wl.real {
		fmt.Fprintf(stdout, "inputs: seed %d, every rank's output checked element-wise against the closed-form sum\n", *seed)
	} else {
		fmt.Fprintln(stdout, "inputs: phantom (size-only) vectors; the seed has no effect")
	}
	fmt.Fprintf(stdout, "failed_frac %g (%d of %d rank-allreduces failed)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)

	var ms []metric
	if traced {
		ms = layerMetrics(plain, withTrace)
		writeShares(stdout, withTrace, plain)
	} else {
		ms = endToEnd(wl, plain)
	}
	fmt.Fprintf(stdout, "%-34s %14s %14s %14s  %s\n", "metric", "median", "min", "max", "unit")
	for _, m := range ms {
		lo, hi := m.value, m.value
		for _, v := range m.values {
			lo, hi = min(lo, v), max(hi, v)
		}
		fmt.Fprintf(stdout, "%-34s %14.6g %14.6g %14.6g  %s (n=%d)\n", m.name, m.value, lo, hi, m.unit, max(len(m.values), 1))
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "dpml-perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// repeatCheck compares every repeat's deterministic counters with the
// first repeat's, world by world, and describes the first difference.
// Tracing is bit-transparent, so traced and untraced repeats must agree
// on everything but the recorder totals, which are compared between
// traced repeats only.
func repeatCheck(samples []*sample) string {
	var firstTraced *sample
	for i, s := range samples {
		if s.traced && firstTraced == nil {
			firstTraced = s
		}
		if len(s.worlds) != len(samples[0].worlds) {
			return fmt.Sprintf("repeat %d ran %d worlds, repeat 0 ran %d", i, len(s.worlds), len(samples[0].worlds))
		}
		for j, c := range s.worlds {
			r := samples[0].worlds[j]
			if s.traced {
				if t := firstTraced.worlds[j].tr; c.tr != t {
					return fmt.Sprintf("repeat %d world %d recorder totals: %+v, first traced repeat: %+v", i, j, c.tr, t)
				}
			}
			c.tr, r.tr = recorded{}, recorded{}
			if c != r {
				return fmt.Sprintf("repeat %d world %d: %+v, repeat 0: %+v", i, j, c, r)
			}
		}
	}
	return ""
}
