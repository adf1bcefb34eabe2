// Command dpml-osu is the osu_allreduce equivalent: it sweeps message
// sizes and prints the average allreduce latency for a chosen design or
// library on a chosen cluster.
//
// Usage:
//
//	dpml-osu -cluster B -nodes 16 -ppn 28 -design dpml -leaders 8
//	dpml-osu -cluster D -nodes 32 -ppn 64 -lib proposed
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dpml/internal/bench"
	"dpml/internal/core"
	"dpml/internal/faults"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/sweep"
	"dpml/internal/topology"
)

func main() {
	var (
		clusterName = flag.String("cluster", "B", "cluster: A, B, C, D, or E")
		nodes       = flag.Int("nodes", 4, "number of nodes")
		ppn         = flag.Int("ppn", 8, "processes per node")
		design      = flag.String("design", "dpml", "design: flat, dpml, dpml-pipelined, sharp-node-leader, sharp-socket-leader, dualroot, genall, pap-sorted, pap-ring")
		leaders     = flag.Int("leaders", 1, "DPML leaders per node")
		chunks      = flag.Int("chunks", 4, "pipeline depth for dpml-pipelined")
		segments    = flag.Int("segments", 0, "pipeline segments per half for dualroot (0 = size-driven)")
		groups      = flag.Int("groups", 0, "group size for genall (0 = size-driven)")
		alg         = flag.String("alg", "", "flat algorithm / inter-leader override")
		lib         = flag.String("lib", "", "library selector instead of -design: mvapich2, intelmpi, proposed, pap-aware")
		sizesFlag   = flag.String("sizes", "4,64,1024,16384,262144,1048576", "comma-separated message sizes in bytes")
		iters       = flag.Int("iters", 5, "timed iterations per size")
		warmup      = flag.Int("warmup", 1, "warmup iterations per size")
		jobs        = flag.Int("j", 0, "parallel simulation jobs (0 = all cores, 1 = serial); each size runs its own simulated job, so output is identical for every value")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf     = flag.String("memprofile", "", "write a heap profile to this file on exit")
		faultSpec   = flag.String("faults", "", "inject a seeded fault plan: comma-separated classes with optional @intensity, e.g. 'straggler@0.25,link' or 'all@0.8' (empty = healthy fabric)")
		faultSeed   = flag.Uint64("fault-seed", 0, "seed for fault-plan instantiation")
		watchdog    = flag.Duration("watchdog", 0, "virtual-time deadline per simulated job; a job not finished by then aborts with a diagnostic naming the blocked ranks (0 = off)")
		shards      = flag.Int("shards", 0, "kernel shards per simulated job (parallelize one run across threads; 0 = DPML_SHARDS env or 1); output is bit-identical for every value")
	)
	flag.Parse()
	var library core.Library
	if *lib != "" {
		var err error
		if library, err = core.ParseLibrary(*lib); err != nil {
			fmt.Fprintln(os.Stderr, "dpml-osu:", err)
			os.Exit(2) // usage error: before any simulation runs
		}
	}
	if *shards > 0 {
		mpi.SetDefaultShards(*shards)
	}

	stopProf, err := bench.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()

	cl := topology.ByName(*clusterName)
	if cl == nil {
		fatal(fmt.Errorf("unknown cluster %q", *clusterName))
	}
	spec, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		fatal(err)
	}
	if spec != nil {
		spec.Seed = *faultSeed
	}
	cfg := mpi.Config{
		Watchdog: sim.Duration(*watchdog / time.Nanosecond),
		Faults: spec.Instantiate(faults.Shape{
			Ranks: *nodes * *ppn, Nodes: *nodes, HCAs: cl.HCAs,
		}),
	}
	var sizes []int
	for _, s := range strings.Split(*sizesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fatal(fmt.Errorf("bad size %q", s))
		}
		sizes = append(sizes, n)
	}

	var choose bench.SpecChooser
	label := ""
	if library != "" {
		choose = bench.LibrarySpec(library)
		label = *lib
	} else {
		spec := core.Spec{
			Design:   core.Design(*design),
			Leaders:  *leaders,
			Chunks:   *chunks,
			Segments: *segments,
			Groups:   *groups,
			InterAlg: mpi.Algorithm(*alg),
		}
		if spec.Design == core.DesignFlat {
			spec.FlatAlg = mpi.Algorithm(*alg)
		}
		choose = bench.FixedSpec(spec)
		label = spec.String()
	}

	// Each size is an independent simulated job (with its own warmup, so
	// per-size results match the one-world sweep bit for bit), fanned
	// across -j workers and printed in request order.
	lat, err := sweep.Map(*jobs, sizes, func(_ int, bytes int) (sim.Duration, error) {
		one, err := bench.AllreduceLatencyCfg(cfg, cl, *nodes, *ppn, choose, []int{bytes}, *iters, *warmup)
		if err != nil {
			return 0, err
		}
		return one[0], nil
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# MPI_Allreduce latency, %s, %d nodes x %d ppn (%d procs), %s\n",
		cl.Name, *nodes, *ppn, *nodes**ppn, label)
	fmt.Printf("%12s %16s\n", "bytes", "latency(us)")
	for i, n := range sizes {
		fmt.Printf("%12d %16.2f\n", n, lat[i].Micros())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpml-osu:", err)
	os.Exit(1)
}
