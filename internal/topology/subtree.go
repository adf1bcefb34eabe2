package topology

// SubtreeMap is the canonical partition of a job's nodes into leaf-switch
// subtrees. It is pure topology: derived only from the node count and the
// cluster's leaf radix, never from any execution knob (such as the shard
// count), so every run of the same job sees the same partition — the
// fabric layer relies on this to keep its arithmetic, and therefore every
// simulated outcome, independent of how the run is executed.
type SubtreeMap struct {
	// Count is the number of subtrees (>= 1).
	Count int
	// Of maps node id -> subtree id. Subtree ids are dense, ordered by
	// first node: nodes [0,radix) are subtree 0, [radix,2*radix) are
	// subtree 1, and so on — matching block placement (Job.Place), where
	// consecutive nodes land under the same leaf switch.
	Of []int32
}

// Size returns the number of nodes in subtree s.
func (m *SubtreeMap) Size(s int) int {
	n := 0
	for _, id := range m.Of {
		if int(id) == s {
			n++
		}
	}
	return n
}

// LeafSubtrees builds the canonical contiguous partition of nodes across
// leaf switches of radix leafRadix. A non-positive radix (topology
// unknown) or a radix >= nodes yields a single subtree.
func LeafSubtrees(nodes, leafRadix int) *SubtreeMap {
	if nodes < 1 {
		nodes = 1
	}
	of := make([]int32, nodes)
	if leafRadix <= 0 || leafRadix >= nodes {
		return &SubtreeMap{Count: 1, Of: of}
	}
	count := (nodes + leafRadix - 1) / leafRadix
	for n := 0; n < nodes; n++ {
		of[n] = int32(n / leafRadix)
	}
	return &SubtreeMap{Count: count, Of: of}
}

// Subtrees returns the canonical leaf-switch partition of this cluster's
// nodes (after any WithNodes restriction).
func (c *Cluster) Subtrees() *SubtreeMap {
	return LeafSubtrees(c.Nodes, c.Net.LeafRadix)
}
