package core

import (
	"math/rand"
	"strings"
	"testing"

	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/topology"
)

// buildEngine creates a world + engine on a trimmed cluster.
func buildEngine(t *testing.T, cl *topology.Cluster, nodes, ppn int) *Engine {
	t.Helper()
	job, err := topology.NewJob(cl, nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(mpi.NewWorld(job, mpi.Config{}))
}

// verifySpec runs one allreduce with random inputs and checks every rank
// against the sequential reduction.
func verifySpec(t *testing.T, cl *topology.Cluster, nodes, ppn int, s Spec, count int, seed int64) {
	t.Helper()
	e := buildEngine(t, cl, nodes, ppn)
	p := e.W.Job.NumProcs()
	rng := rand.New(rand.NewSource(seed))
	in := make([][]float64, p)
	want := make([]float64, count)
	for k := range in {
		in[k] = make([]float64, count)
		for i := range in[k] {
			in[k][i] = float64(rng.Intn(512) - 256)
			want[i] += in[k][i]
		}
	}
	err := e.W.Run(func(r *mpi.Rank) error {
		v := mpi.NewVector(mpi.Float64, count)
		copy(v.Float64s(), in[r.Rank()])
		if err := e.Allreduce(r, s, mpi.Sum, v); err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			if v.At(i) != want[i] {
				t.Errorf("%v on %s %dx%d n=%d: rank %d elem %d: got %v want %v",
					s, cl.Name, nodes, ppn, count, r.Rank(), i, v.At(i), want[i])
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%v on %s %dx%d: %v", s, cl.Name, nodes, ppn, err)
	}
}

func TestDPMLCorrectAcrossLeaderCounts(t *testing.T) {
	for _, l := range []int{1, 2, 3, 4, 7} {
		for _, count := range []int{1, 5, 64, 999} {
			verifySpec(t, topology.ClusterB(), 4, 7, DPML(l), count, int64(l*100+count))
		}
	}
}

func TestDPMLCorrectOnAllClusters(t *testing.T) {
	for _, cl := range topology.All() {
		ppn := 4
		verifySpec(t, cl, 3, ppn, DPML(2), 257, 42)
	}
}

func TestDPMLNonPowerOfTwoNodes(t *testing.T) {
	// 5 nodes exercises the fold path in the inter-leader allreduce.
	verifySpec(t, topology.ClusterB(), 5, 4, DPML(4), 123, 7)
	verifySpec(t, topology.ClusterB(), 7, 3, DPML(2), 55, 8)
}

func TestDPMLSingleNode(t *testing.T) {
	// h=1: inter-node phase degenerates; shm phases must still reduce.
	verifySpec(t, topology.ClusterB(), 1, 8, DPML(4), 100, 9)
}

func TestDPMLSingleProcessPerNode(t *testing.T) {
	verifySpec(t, topology.ClusterB(), 4, 1, DPML(1), 64, 10)
}

func TestDPMLLeadersExceedingElements(t *testing.T) {
	// n < l: some leaders own empty partitions.
	verifySpec(t, topology.ClusterB(), 2, 8, DPML(8), 3, 11)
}

func TestDPMLExplicitInterAlg(t *testing.T) {
	for _, alg := range mpi.FlatAlgorithms() {
		s := Spec{Design: DesignDPML, Leaders: 2, InterAlg: alg}
		verifySpec(t, topology.ClusterB(), 4, 4, s, 77, 12)
	}
}

func TestPipelinedCorrect(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8} {
		verifySpec(t, topology.ClusterC(), 4, 4, DPMLPipelined(2, k), 513, int64(13+k))
	}
	// Non-power-of-two node count with pipelining.
	verifySpec(t, topology.ClusterC(), 5, 4, DPMLPipelined(4, 4), 999, 14)
	// Chunks exceeding elements.
	verifySpec(t, topology.ClusterC(), 2, 2, DPMLPipelined(1, 16), 5, 15)
}

func TestFlatDesign(t *testing.T) {
	for _, alg := range mpi.FlatAlgorithms() {
		verifySpec(t, topology.ClusterB(), 3, 2, Flat(alg), 100, 16)
	}
}

func TestSharpDesignsCorrect(t *testing.T) {
	for _, s := range []Spec{{Design: DesignSharpNode}, {Design: DesignSharpSocket}} {
		for _, shape := range []struct{ nodes, ppn int }{{2, 1}, {4, 4}, {3, 7}, {4, 28}} {
			verifySpec(t, topology.ClusterA(), shape.nodes, shape.ppn, s, 128, 17)
		}
	}
}

func TestSharpFallsBackBeyondPayloadLimit(t *testing.T) {
	// 1M floats far exceeds MaxPayload; must still produce the right
	// answer via the host-based fallback.
	verifySpec(t, topology.ClusterA(), 2, 4, Spec{Design: DesignSharpNode}, 64<<10, 18)
}

func TestSharpUnavailableRejected(t *testing.T) {
	e := buildEngine(t, topology.ClusterC(), 2, 2)
	if err := e.Validate(Spec{Design: DesignSharpNode}); err == nil {
		t.Fatal("SHArP design accepted on Omni-Path cluster")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	e := buildEngine(t, topology.ClusterA(), 2, 4)
	bad := []Spec{
		{Design: "nope"},
		{Design: DesignDPML, Leaders: 0},
		{Design: DesignDPML, Leaders: 5}, // > ppn
		{Design: DesignDPMLPipelined, Leaders: 2, Chunks: 0},
		{Design: DesignDPMLPipelined, Leaders: 2, Chunks: 5000},
		{Design: DesignFlat, FlatAlg: "bogus"},
	}
	for _, s := range bad {
		if err := e.Validate(s); err == nil {
			t.Errorf("Validate accepted %+v", s)
		}
	}
	good := []Spec{
		HostBased(),
		DPML(4),
		DPMLPipelined(2, 8),
		Flat(mpi.AlgRing),
		{Design: DesignSharpNode},
		{Design: DesignSharpSocket},
	}
	for _, s := range good {
		if err := e.Validate(s); err != nil {
			t.Errorf("Validate rejected %+v: %v", s, err)
		}
	}
}

func TestEngineSocketLayout(t *testing.T) {
	e := buildEngine(t, topology.ClusterA(), 2, 28)
	leaders := e.SocketLeaders()
	if len(leaders) != 2 || leaders[0] != 0 || leaders[1] != 14 {
		t.Fatalf("socket leaders = %v, want [0 14]", leaders)
	}
	eKNL := buildEngine(t, topology.ClusterD(), 2, 16)
	if l := eKNL.SocketLeaders(); len(l) != 1 || l[0] != 0 {
		t.Fatalf("KNL socket leaders = %v, want [0]", l)
	}
}

// latencyOf measures the average per-iteration virtual time of iters
// allreduces under a spec.
func latencyOf(t *testing.T, cl *topology.Cluster, nodes, ppn int, s Spec, bytes, iters int) sim.Duration {
	t.Helper()
	job, err := topology.NewJob(cl, nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(mpi.NewWorld(job, mpi.Config{}))
	count := bytes / 4
	var elapsed sim.Duration
	err = e.W.Run(func(r *mpi.Rank) error {
		v := mpi.NewPhantom(mpi.Float32, count)
		// Warmup.
		if err := e.Allreduce(r, s, mpi.Sum, v); err != nil {
			return err
		}
		r.Barrier(e.W.CommWorld())
		start := r.Now()
		for i := 0; i < iters; i++ {
			if err := e.Allreduce(r, s, mpi.Sum, v); err != nil {
				return err
			}
		}
		r.Barrier(e.W.CommWorld())
		if r.Rank() == 0 {
			elapsed = r.Now().Sub(start) / sim.Duration(iters)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return elapsed
}

func TestMoreLeadersWinAtLargeMessages(t *testing.T) {
	// The central claim (Figs 4-7): at 512KB, 16 leaders should be
	// several times faster than 1 leader.
	for _, cl := range []*topology.Cluster{topology.ClusterB(), topology.ClusterC()} {
		t1 := latencyOf(t, cl, 8, 16, DPML(1), 512<<10, 3)
		t16 := latencyOf(t, cl, 8, 16, DPML(16), 512<<10, 3)
		speedup := float64(t1) / float64(t16)
		if speedup < 2 {
			t.Errorf("%s: 16-leader speedup at 512KB = %.2fx, want > 2x", cl.Name, speedup)
		}
	}
}

func TestOneLeaderFineAtSmallMessages(t *testing.T) {
	// At 64B, extra leaders must not help much (paper: "sometimes causes
	// slight degradation").
	cl := topology.ClusterB()
	t1 := latencyOf(t, cl, 4, 16, DPML(1), 64, 3)
	t16 := latencyOf(t, cl, 4, 16, DPML(16), 64, 3)
	if float64(t1)/float64(t16) > 1.5 {
		t.Errorf("16 leaders 'win' %.2fx at 64B; should be near or below 1x",
			float64(t1)/float64(t16))
	}
}

func TestSharpBeatsHostAtSmallLosesAtLarge(t *testing.T) {
	cl := topology.ClusterA()
	// ppn=1, 16 nodes, tiny message: SHArP should win clearly (Fig 8).
	host := latencyOf(t, cl, 16, 1, HostBased(), 8, 5)
	sharp := latencyOf(t, cl, 16, 1, Spec{Design: DesignSharpNode}, 8, 5)
	if sharp >= host {
		t.Errorf("SHArP (%v) not faster than host-based (%v) at 8B ppn=1", sharp, host)
	}
	// 4KB: host-based should win (Fig 8 crossover).
	host4k := latencyOf(t, cl, 16, 1, HostBased(), 4<<10, 5)
	sharp4k := latencyOf(t, cl, 16, 1, Spec{Design: DesignSharpNode}, 4<<10, 5)
	if sharp4k <= host4k {
		t.Errorf("SHArP (%v) still faster than host-based (%v) at 4KB", sharp4k, host4k)
	}
}

func TestSocketLeaderBeatsNodeLeaderAtFullSubscription(t *testing.T) {
	cl := topology.ClusterA()
	node := latencyOf(t, cl, 8, 28, Spec{Design: DesignSharpNode}, 256, 3)
	socket := latencyOf(t, cl, 8, 28, Spec{Design: DesignSharpSocket}, 256, 3)
	if socket >= node {
		t.Errorf("socket-leader (%v) not faster than node-leader (%v) at ppn=28", socket, node)
	}
}

func TestLibrarySelectorsRun(t *testing.T) {
	for _, lib := range Libraries() {
		e := buildEngine(t, topology.ClusterA(), 4, 8)
		err := e.W.Run(func(r *mpi.Rank) error {
			for _, count := range []int{4, 1 << 10, 64 << 10} {
				v := mpi.NewVector(mpi.Float32, count)
				v.Fill(1)
				if err := e.LibraryAllreduce(r, lib, mpi.Sum, v); err != nil {
					return err
				}
				if v.At(0) != float64(e.W.Job.NumProcs()) {
					t.Errorf("%s at %d floats: got %v, want %d",
						lib, count, v.At(0), e.W.Job.NumProcs())
					return nil
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", lib, err)
		}
	}
}

func TestBestLeadersMonotoneAndBounded(t *testing.T) {
	for _, name := range []string{"A-Xeon-IB-SHArP", "C-Xeon-OmniPath"} {
		prev := 0
		for _, bytes := range []int{4, 512, 2 << 10, 8 << 10, 32 << 10, 256 << 10, 1 << 20} {
			l := BestLeaders(name, 28, bytes)
			if l < 1 || l > 28 {
				t.Fatalf("%s %dB: leaders %d out of range", name, bytes, l)
			}
			if l < prev {
				t.Fatalf("%s: leader count decreased from %d to %d at %dB", name, prev, l, bytes)
			}
			prev = l
		}
	}
	if l := BestLeaders("D-KNL-OmniPath", 4, 1<<20); l > 4 {
		t.Fatal("BestLeaders must respect ppn cap")
	}
}

func TestSpecString(t *testing.T) {
	cases := map[string]Spec{
		"dpml(l=4)":          DPML(4),
		"dpml-pipe(l=2,k=8)": DPMLPipelined(2, 8),
		"flat(ring)":         Flat(mpi.AlgRing),
		"sharp-node-leader":  {Design: DesignSharpNode},
	}
	for want, s := range cases {
		if s.String() != want {
			t.Errorf("String() = %q, want %q", s.String(), want)
		}
	}
}

func TestProposedSpecShape(t *testing.T) {
	eA := buildEngine(t, topology.ClusterA(), 8, 28)
	if s := eA.ProposedSpec(256); s.Design != DesignSharpSocket {
		t.Errorf("cluster A 256B: %v, want SHArP socket-leader", s)
	}
	if s := eA.ProposedSpec(512 << 10); s.Design != DesignDPML && s.Design != DesignDPMLPipelined {
		t.Errorf("cluster A 512KB: %v, want DPML", s)
	}
	eC := buildEngine(t, topology.ClusterC(), 8, 28)
	if s := eC.ProposedSpec(256); s.Design == DesignSharpSocket || s.Design == DesignSharpNode {
		t.Errorf("cluster C cannot use SHArP, got %v", s)
	}
	if s := eC.ProposedSpec(8 << 20); s.Design != DesignDPMLPipelined {
		t.Errorf("cluster C 8MB: %v, want pipelined", s)
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() sim.Duration {
		return latencyOf(t, topology.ClusterC(), 4, 8, DPMLPipelined(4, 4), 1<<20, 2)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestLibraryAllreduceUnknownName(t *testing.T) {
	e := buildEngine(t, topology.ClusterB(), 2, 2)
	err := e.W.Run(func(r *mpi.Rank) error {
		if err := e.LibraryAllreduce(r, Library("nope"), mpi.Sum, mpi.NewPhantom(mpi.Float32, 4)); err == nil {
			t.Error("unknown library accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseLibrary(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Library
		ok   bool
	}{
		{"mvapich2", LibMVAPICH2, true},
		{"intelmpi", LibIntelMPI, true},
		{"proposed", LibProposed, true},
		{"pap-aware", LibPAPAware, true},
		{"bogus", "", false},
	} {
		got, err := ParseLibrary(tc.name)
		if tc.ok {
			if err != nil || got != tc.want {
				t.Errorf("ParseLibrary(%q) = %q, %v; want %q", tc.name, got, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParseLibrary(%q) accepted an unknown name as %q", tc.name, got)
			continue
		}
		// The error lists every selectable name, extensions included.
		for _, l := range ExtendedLibraries() {
			if !strings.Contains(err.Error(), string(l)) {
				t.Errorf("ParseLibrary(%q) error %q does not list %q", tc.name, err, l)
			}
		}
	}
}
