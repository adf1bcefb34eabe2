package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestCorruptedOutputFails runs one verified-64 world for real and
// checks that a single wrong output element counts as a failure.
func TestCorruptedOutputFails(t *testing.T) {
	base, _ := workloadByName("verified-64")
	wl := *base
	wl.designs = wl.designs[:1]
	orc := newOracle(7, wl.nodes*wl.ppn, wl.bytes/wl.dtype.Size())
	for _, corrupt := range []bool{false, true} {
		s := &sample{}
		wd, err := wl.build(wl.designs[0], orc, s)
		if err != nil {
			t.Fatal(err)
		}
		runErr := wd.run(s)
		if corrupt {
			wd.vecs[5].Int64s()[1000]++
		}
		wd.check(s, runErr)
		frac := float64(s.failed) / float64(s.attempted)
		if corrupt && frac <= 0 {
			t.Errorf("corrupted output: failed_frac = %g, want > 0", frac)
		}
		if !corrupt && s.failed != 0 {
			t.Errorf("clean output: %d of %d rank-allreduces failed (run error %v)", s.failed, s.attempted, runErr)
		}
	}
}

func TestOracleSeeded(t *testing.T) {
	a, b := newOracle(1, 4, 16), newOracle(2, 4, 16)
	if a.base[0] == b.base[0] && a.off[0] == b.off[0] {
		t.Error("different seeds gave the same inputs")
	}
	again := newOracle(1, 4, 16)
	for i := range a.base {
		if a.base[i] != again.base[i] {
			t.Fatal("the same seed gave different inputs")
		}
	}
}

func TestRepeatCheckFlagsDrift(t *testing.T) {
	mk := func(events uint64, traced bool, sends int) *sample {
		return &sample{traced: traced, worlds: []counters{{events: events, tr: recorded{sends: sends}}}}
	}
	if msg := repeatCheck([]*sample{mk(10, false, 0), mk(10, true, 3), mk(10, true, 3)}); msg != "" {
		t.Errorf("identical counters flagged: %s", msg)
	}
	if msg := repeatCheck([]*sample{mk(10, false, 0), mk(11, false, 0)}); msg == "" {
		t.Error("differing event counts not flagged")
	}
	if msg := repeatCheck([]*sample{mk(10, true, 3), mk(10, true, 4)}); msg == "" {
		t.Error("differing recorder totals not flagged")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string
		want  int
	}{
		{[]string{"dpml/internal/sim.(*heap).siftDown", "dpml/internal/sim.(*Kernel).schedule"}, bucketSim},
		{[]string{"runtime.mapaccess2", "dpml/internal/fabric.(*FlowNet).waterFill"}, bucketFabric},
		{[]string{"runtime.memmove", "dpml/internal/mpi.(*Vector).CopyFrom"}, bucketMemmove},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.chansend1", "dpml/internal/sim.(*Kernel).handoff"}, bucketSched},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"dpml/internal/core.(*Engine).dpml"}, bucketCore},
		{[]string{"dpml/internal/trace.(*Recorder).Add", "dpml/internal/mpi.(*Rank).Send"}, bucketOther},
		{[]string{"runtime.sysmon"}, bucketOther},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, bucketNames[got], bucketNames[c.want])
		}
	}
}

// TestFoldProfileKeepsLabelledSpan profiles CPU work under two span
// labels and checks the fold keeps only the requested one.
func TestFoldProfileKeepsLabelledSpan(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for _, span := range []string{"keep", "drop"} {
		pprof.Do(context.Background(), pprof.Labels(spanLabel, span), func(context.Context) { spin(300 * time.Millisecond) })
	}
	pprof.StopCPUProfile()
	_, kept, err := foldProfile(buf.Bytes(), "keep")
	if err != nil {
		t.Fatal(err)
	}
	_, none, err := foldProfile(buf.Bytes(), "absent")
	if err != nil {
		t.Fatal(err)
	}
	if kept == 0 || none >= kept {
		t.Errorf("folded %d samples for the kept span and %d for an absent one", kept, none)
	}
}

var sink uint64

// spin burns d of CPU time on the calling goroutine.
func spin(d time.Duration) {
	for start := cpuTime(); cpuTime()-start < d; {
		for i := 0; i < 1e5; i++ {
			sink = sink*6364136223846793005 + 1
		}
	}
}

func TestBadArgsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "scale-10k", "-trace", "2"},
		{"-workload", "verified-64", "-allreduces", "2"},
		{"-workload", "scale-10k", "-seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || strings.Contains(out.String(), "{") {
			t.Errorf("run(%v) = %d, stdout %q; want non-zero exit and no result", args, code, out.String())
		}
	}
}
