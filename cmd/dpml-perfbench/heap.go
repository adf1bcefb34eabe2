package main

import (
	"runtime/metrics"
	"time"
)

// heapSampler polls the live heap size on its own goroutine and keeps
// the largest value seen. The runtime keeps no high-water mark itself.
type heapSampler struct {
	quit chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.quit:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling goroutine, waits for it and returns the peak
// in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	return <-h.peak
}
