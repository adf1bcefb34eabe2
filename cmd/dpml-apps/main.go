// Command dpml-apps runs the application kernels (HPCG-like CG,
// miniAMR-like refinement, DNN training) on a chosen cluster and prints
// their headline metrics — the command-line face of Figure 11's
// workloads.
//
// Usage:
//
//	dpml-apps -app hpcg -cluster A -nodes 16 -ppn 28 -lib proposed
//	dpml-apps -app miniamr -cluster C -nodes 16 -ppn 16
//	dpml-apps -app dnn -cluster D -nodes 8 -ppn 16 -bucket 1048576
package main

import (
	"flag"
	"fmt"
	"os"

	"dpml/internal/apps/dnn"
	"dpml/internal/apps/hpcg"
	"dpml/internal/apps/miniamr"
	"dpml/internal/core"
	"dpml/internal/mpi"
	"dpml/internal/topology"
)

func main() {
	var (
		app         = flag.String("app", "hpcg", "workload: hpcg, miniamr, or dnn")
		clusterName = flag.String("cluster", "A", "cluster: A, B, C, D, or E")
		nodes       = flag.Int("nodes", 4, "number of nodes")
		ppn         = flag.Int("ppn", 8, "processes per node")
		lib         = flag.String("lib", "proposed", "library for miniamr/dnn: mvapich2, intelmpi, proposed, pap-aware")
		design      = flag.String("design", "host", "hpcg DDOT design: host, sharp-node, sharp-socket")
		iters       = flag.Int("iters", 20, "CG iterations (hpcg)")
		steps       = flag.Int("steps", 3, "refinement/training steps (miniamr, dnn)")
		bucket      = flag.Int("bucket", 0, "gradient bucket bytes (dnn; 0 = per layer)")
	)
	flag.Parse()
	library, err := core.ParseLibrary(*lib)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpml-apps:", err)
		os.Exit(2) // usage error: before any simulation runs
	}

	cl := topology.ByName(*clusterName)
	if cl == nil {
		fatal(fmt.Errorf("unknown cluster %q", *clusterName))
	}
	job, err := topology.NewJob(cl, *nodes, *ppn)
	if err != nil {
		fatal(err)
	}
	e := core.NewEngine(mpi.NewWorld(job, mpi.Config{}))
	fmt.Printf("%s on %s, %d nodes x %d ppn (%d procs)\n", *app, cl.Name, *nodes, *ppn, job.NumProcs())

	switch *app {
	case "hpcg":
		spec := core.HostBased()
		switch *design {
		case "host":
		case "sharp-node":
			spec = core.Spec{Design: core.DesignSharpNode}
		case "sharp-socket":
			spec = core.Spec{Design: core.DesignSharpSocket}
		default:
			fatal(fmt.Errorf("unknown design %q", *design))
		}
		res, err := hpcg.Run(e, hpcg.Config{Nx: 16, Ny: 16, Nz: 8, Iterations: *iters, Real: true, Spec: spec})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  DDOT time  %v\n  total time %v\n  residual drop %.2e over %d iterations\n",
			res.DDOTTime, res.TotalTime, res.ResidualDrop, res.Iterations)
	case "miniamr":
		res, err := miniamr.Run(e, miniamr.Config{
			BlocksPerRank: 32, BlockBytes: 4096, Steps: *steps, Library: library,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  refinement time %v over %d steps (library %s)\n", res.RefineTime, res.Steps, *lib)
	case "dnn":
		res, err := dnn.Run(e, dnn.Config{
			Layers: dnn.ResNet50ish(), Steps: *steps, BucketBytes: *bucket, Library: library,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  step time %v, gradient averaging %v (%d allreduces/step, library %s)\n",
			res.StepTime, res.CommTime, res.Allreduces, *lib)
	default:
		fatal(fmt.Errorf("unknown app %q", *app))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpml-apps:", err)
	os.Exit(1)
}
