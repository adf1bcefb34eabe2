package mpi

import (
	"testing"

	"dpml/internal/topology"
)

// TestInternCommDigitBoundaries: rank lists that print alike once their
// separators are gone ([1 23], [12 3], [1 2 3]) are different groups and
// must intern to different communicators, while deriving the same list
// again returns the very same communicator.
func TestInternCommDigitBoundaries(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 3, 8, Config{})
	lists := [][]int{{1, 23}, {12, 3}, {1, 2, 3}, {23, 1}}
	seen := map[*Comm][]int{}
	for _, ranks := range lists {
		c := w.InternComm(ranks)
		if prior, dup := seen[c]; dup {
			t.Fatalf("%v and %v interned to one communicator", prior, ranks)
		}
		seen[c] = ranks
		if again := w.InternComm(append([]int(nil), ranks...)); again != c {
			t.Fatalf("%v interned twice to different communicators", ranks)
		}
		if c.Size() != len(ranks) || c.Global(0) != ranks[0] {
			t.Fatalf("%v interned to a communicator of %d ranks starting at %d", ranks, c.Size(), c.Global(0))
		}
	}
}
