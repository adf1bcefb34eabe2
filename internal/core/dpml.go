package core

import (
	"dpml/internal/mpi"
	"dpml/internal/trace"
)

// dpml runs the four-phase Data Partitioning-based Multi-Leader allreduce
// of Section 4.1 (chunks > 1 switches Phase 3 to the pipelined variant of
// Section 4.2):
//
//  1. Local copy to shared memory: every local rank splits its input into
//     l partitions and copies partition j into leader j's segment.
//  2. Intra-node reduction by leaders: leader j reduces the ppn gathered
//     copies of partition j (ppn-1 reductions of n/l bytes).
//  3. Inter-node allreduce by leaders: leader j allreduces its partially
//     reduced partition with the same-index leaders of the other nodes —
//     l concurrent inter-node collectives on n/l bytes each.
//  4. Local copy to individual processes: every local rank copies the l
//     fully reduced partitions back out of shared memory.
func (e *Engine) dpml(r *mpi.Rank, op *mpi.Op, vec *mpi.Vector, leaders, chunks int, interAlg mpi.Algorithm) {
	e.dpmlInstrumented(r, op, vec, leaders, chunks, interAlg, nil)
}

// dpmlInstrumented is dpml with optional per-phase timing (pt may be
// nil). Phase boundaries are measured on the calling rank; leaders'
// Phase 2 includes the wait for the slowest local contributor, and Phase
// 4 includes the wait for the leaders' results — the same accounting a
// profiled MPI implementation would report.
func (e *Engine) dpmlInstrumented(r *mpi.Rank, op *mpi.Op, vec *mpi.Vector, leaders, chunks int, interAlg mpi.Algorithm, pt *PhaseTimes) {
	job := e.W.Job
	pl := r.Place()
	ppn := job.PPN
	rec := e.W.Tracer()

	if ppn == 1 {
		// Single process per node: the shared-memory phases are
		// identity operations; go straight to the inter-node phase.
		start := r.Now()
		sp := rec.BeginSpan(r.Rank(), trace.PhaseInter, start)
		e.interNode(r, e.leaderComms[0], op, vec, chunks, interAlg)
		sp.End(r.Now())
		if pt != nil {
			pt.Inter += r.Now().Sub(start)
		}
		return
	}

	seq := e.nextSeq(r)
	rg := e.regions[pl.Node]
	cnts, displs := mpi.BlockPartition(vec.Len(), leaders)

	// Phase 1: concurrent gather of partitions into leader segments. The
	// slot is a view of vec, not a copy: this rank writes partition j
	// only in Phase 4, after ResultWait(j), and leader j publishes only
	// after it has read every slot of j. Phase 4 writes through the same
	// views.
	start := r.Now()
	sp := rec.BeginSpan(r.Rank(), trace.PhaseCopy, start)
	parts := make([]*mpi.Vector, leaders)
	for j := range parts {
		parts[j] = vec.Slice(displs[j], displs[j]+cnts[j])
		cross := pl.Socket != e.leaderSocket[j]
		r.MemCopy(cross, parts[j].Bytes())
		rg.Put(seq, leaders, j, pl.LocalRank, parts[j])
	}
	sp.End(r.Now())
	if pt != nil {
		pt.Copy += r.Now().Sub(start)
	}

	if pl.LocalRank < leaders {
		j := pl.LocalRank
		// Phase 2: reduce the gathered partitions.
		start = r.Now()
		sp = rec.BeginSpan(r.Rank(), trace.PhaseReduce, start)
		slots := rg.GatherWait(r.Proc(), seq, leaders, j, ppn)
		e.gatherSync(r, j, false)
		acc := slots[0].Clone()
		for i := 1; i < ppn; i++ {
			r.Reduce(op, acc, slots[i])
		}
		sp.End(r.Now())
		if pt != nil {
			pt.Reduce += r.Now().Sub(start)
		}
		// Phase 3: inter-node allreduce with same-index leaders.
		start = r.Now()
		sp = rec.BeginSpan(r.Rank(), trace.PhaseInter, start)
		e.interNode(r, e.leaderComms[j], op, acc, chunks, interAlg)
		if pt != nil {
			pt.Inter += r.Now().Sub(start)
		}
		rg.Publish(seq, leaders, j, acc)
		sp.End(r.Now())
	}

	// Phase 4: concurrent broadcast of the reduced partitions.
	start = r.Now()
	sp = rec.BeginSpan(r.Rank(), trace.PhaseBcast, start)
	for j, part := range parts {
		res := rg.ResultWait(r.Proc(), seq, leaders, j)
		cross := pl.Socket != e.leaderSocket[j]
		r.MemCopy(cross, res.Bytes())
		part.CopyFrom(res)
	}
	rg.DoneCopy(seq)
	sp.End(r.Now())
	if pt != nil {
		pt.Bcast += r.Now().Sub(start)
	}
}

// interNode runs Phase 3 on the leader communicator: a library-chosen
// flat algorithm, or the pipelined non-blocking variant when chunks > 1.
func (e *Engine) interNode(r *mpi.Rank, c *mpi.Comm, op *mpi.Op, vec *mpi.Vector, chunks int, interAlg mpi.Algorithm) {
	if c.Size() == 1 {
		return
	}
	if chunks > 1 {
		e.pipelinedAllreduce(r, c, op, vec, chunks)
		return
	}
	alg := interAlg
	if alg == "" {
		alg = autoAlg(vec.Bytes())
	}
	r.Allreduce(c, alg, op, vec)
}
