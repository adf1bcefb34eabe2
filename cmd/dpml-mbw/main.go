// Command dpml-mbw is the osu_mbw_mr equivalent: aggregate multi-pair
// throughput and the relative-throughput curves of Figure 1.
//
// Usage:
//
//	dpml-mbw -cluster C                 # inter-node, Omni-Path
//	dpml-mbw -cluster C -intra          # intra-node shared memory
//	dpml-mbw -cluster B -pairs 1,4,16
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dpml/internal/bench"
	"dpml/internal/sweep"
	"dpml/internal/topology"
)

func main() {
	var (
		clusterName = flag.String("cluster", "C", "cluster: A, B, C, D, or E")
		intra       = flag.Bool("intra", false, "place both ends of each pair on one node")
		pairsFlag   = flag.String("pairs", "1,2,4,8,16", "comma-separated pair counts")
		sizesFlag   = flag.String("sizes", "4,64,1024,16384,262144,1048576", "comma-separated message sizes in bytes")
		window      = flag.Int("window", 64, "messages in flight per pair")
		iters       = flag.Int("iters", 2, "iterations per size")
		relative    = flag.Bool("relative", true, "print throughput relative to 1 pair (Figure 1 style)")
		jobs        = flag.Int("j", 0, "parallel simulation jobs (0 = all cores, 1 = serial); output is identical for every value")
	)
	flag.Parse()

	cl := topology.ByName(*clusterName)
	if cl == nil {
		fatal(fmt.Errorf("unknown cluster %q", *clusterName))
	}
	parse := func(s string) []int {
		var out []int
		for _, f := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				fatal(fmt.Errorf("bad value %q", f))
			}
			out = append(out, n)
		}
		return out
	}
	pairs := parse(*pairsFlag)
	sizes := parse(*sizesFlag)

	mode := "inter-node"
	if *intra {
		mode = "intra-node"
	}
	if *relative {
		tb, err := bench.RelativeThroughput("mbw",
			fmt.Sprintf("Relative throughput, %s, %s", mode, cl.Name),
			cl, *intra, pairs, sizes, *window, *iters, *jobs)
		if err != nil {
			fatal(err)
		}
		tb.Render(os.Stdout)
		return
	}
	fmt.Printf("# Aggregate throughput (MB/s), %s, %s\n", mode, cl.Name)
	fmt.Printf("%12s", "bytes")
	for _, p := range pairs {
		fmt.Printf(" %10dp", p)
	}
	fmt.Println()
	cols, err := sweep.Map(*jobs, pairs, func(_ int, p int) ([]float64, error) {
		return bench.MultiPairThroughput(cl, bench.MBWConfig{
			Pairs: p, Intra: *intra, Window: *window, Iters: *iters,
		}, sizes)
	})
	if err != nil {
		fatal(err)
	}
	for si, n := range sizes {
		fmt.Printf("%12d", n)
		for pi := range pairs {
			fmt.Printf(" %11.1f", cols[pi][si]/1e6)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpml-mbw:", err)
	os.Exit(1)
}
