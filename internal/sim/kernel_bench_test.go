package sim

import (
	"fmt"
	"testing"
)

// benchmarkYield drives a kernel whose procs do nothing but yield, so the
// measured cost is pure scheduler work: one ready-queue push and pop plus
// a context switch per operation. At high proc counts the queue stays
// full, which is exactly the regime where a shift-based FIFO pays O(n)
// per pop.
func benchmarkYield(b *testing.B, procs int) {
	b.ReportAllocs()
	iters := b.N/procs + 1
	k := NewKernel()
	for i := 0; i < procs; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < iters; j++ {
				p.Yield()
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkReadyQueuePop100Procs(b *testing.B) { benchmarkYield(b, 100) }
func BenchmarkReadyQueuePop1kProcs(b *testing.B)  { benchmarkYield(b, 1000) }
func BenchmarkReadyQueuePop10kProcs(b *testing.B) { benchmarkYield(b, 10000) }

// BenchmarkEventSchedule measures Kernel.At/After plus heap and
// allocation costs: a single proc sleeping b.N times schedules and fires
// one event per iteration.
func BenchmarkEventSchedule(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	k.Spawn("timer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventScheduleFanout measures the event path with a populated
// heap: 64 procs sleeping concurrently keep ~64 events live, so every
// push and pop pays a real heap traversal.
func BenchmarkEventScheduleFanout(b *testing.B) {
	b.ReportAllocs()
	const procs = 64
	iters := b.N/procs + 1
	k := NewKernel()
	for i := 0; i < procs; i++ {
		d := Duration(i + 1)
		k.Spawn(fmt.Sprintf("t%d", i), func(p *Proc) {
			for j := 0; j < iters; j++ {
				p.Sleep(d * Microsecond)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHandoffPingPong measures the cost of one proc switch: two
// procs take turns over a Signal, each firing it to ready the other and
// then waiting on it, so every wait is one scheduling decision and one
// switch to the other proc with no event in between. ns/switch divides
// the run's time by Stats.ContextSwitch.
func BenchmarkHandoffPingPong(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	var sig Signal
	for _, name := range []string{"ping", "pong"} {
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < b.N/2+1; i++ {
				sig.Fire()
				sig.Wait(p, name)
			}
			sig.Fire()
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(k.Stats.ContextSwitch), "ns/switch")
}
