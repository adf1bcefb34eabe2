package core

import (
	"fmt"

	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/trace"
)

// This file implements the paper's stated future work ("we would like to
// explore the possibilities of exploiting DPML approach for other
// blocking and non-blocking collectives as well"): data-partitioned
// multi-leader Reduce and Bcast, plus a phase-profiled Allreduce used by
// the model-validation experiments.

// Reduce performs an MPI_Reduce with the DPML structure: partitions are
// gathered and combined by the node's leaders (Phases 1-2), each leader
// runs an inter-node reduction rooted at root's node (Phase 3), and on
// the root node the fully reduced partitions are copied into root's
// buffer (Phase 4). Only DPML-family specs are supported; on return only
// root's vec holds the result.
func (e *Engine) Reduce(r *mpi.Rank, s Spec, op *mpi.Op, root int, vec *mpi.Vector) error {
	if s.Design != DesignDPML && s.Design != DesignDPMLPipelined {
		return fmt.Errorf("core: Reduce supports DPML designs, not %q", s.Design)
	}
	if err := e.Validate(s); err != nil {
		return err
	}
	if root < 0 || root >= e.W.Job.NumProcs() {
		return fmt.Errorf("core: Reduce root %d out of range", root)
	}
	job := e.W.Job
	pl := r.Place()
	ppn := job.PPN
	leaders := s.Leaders
	rootNode := job.Place(root).Node
	rec := e.W.Tracer()
	coll := rec.BeginCollective(r.Rank(), "reduce:"+s.String(), vec.Bytes(), r.Now())
	defer func() { coll.End(r.Now()) }()

	if ppn == 1 {
		sp := rec.BeginSpan(r.Rank(), trace.PhaseInter, r.Now())
		r.ReduceColl(e.leaderComms[0], rootNode, op, vec)
		sp.End(r.Now())
		return nil
	}

	seq := e.nextSeq(r)
	rg := e.regions[pl.Node]
	cnts, displs := mpi.BlockPartition(vec.Len(), leaders)

	// Phases 1-2: identical to allreduce, except that the slots hold
	// snapshots, not views of vec: only the root waits for a result, so
	// every other rank may return (and its caller reuse vec) before the
	// leaders have read its partitions.
	sp := rec.BeginSpan(r.Rank(), trace.PhaseCopy, r.Now())
	for j := 0; j < leaders; j++ {
		part := vec.Slice(displs[j], displs[j]+cnts[j])
		cross := pl.Socket != e.leaderSocket[j]
		r.MemCopy(cross, part.Bytes())
		rg.Put(seq, leaders, j, pl.LocalRank, part.Clone())
	}
	sp.End(r.Now())
	if pl.LocalRank < leaders {
		j := pl.LocalRank
		sp = rec.BeginSpan(r.Rank(), trace.PhaseReduce, r.Now())
		slots := rg.GatherWait(r.Proc(), seq, leaders, j, ppn)
		e.gatherSync(r, j, false)
		acc := slots[0].Clone()
		for i := 1; i < ppn; i++ {
			r.Reduce(op, acc, slots[i])
		}
		sp.End(r.Now())
		// Phase 3: inter-node reduce rooted at root's node.
		sp = rec.BeginSpan(r.Rank(), trace.PhaseInter, r.Now())
		r.ReduceColl(e.leaderComms[j], rootNode, op, acc)
		if pl.Node == rootNode {
			rg.Publish(seq, leaders, j, acc)
		}
		sp.End(r.Now())
	}
	// Phase 4: only root copies the result out; everyone releases the
	// operation.
	sp = rec.BeginSpan(r.Rank(), trace.PhaseBcast, r.Now())
	if r.Rank() == root {
		for j := 0; j < leaders; j++ {
			res := rg.ResultWait(r.Proc(), seq, leaders, j)
			cross := pl.Socket != e.leaderSocket[j]
			r.MemCopy(cross, res.Bytes())
			vec.Slice(displs[j], displs[j]+cnts[j]).CopyFrom(res)
		}
	}
	rg.DoneCopy(seq)
	sp.End(r.Now())
	return nil
}

// Bcast broadcasts root's vec with the DPML structure run in reverse:
// root scatters its partitions to the local leaders through shared
// memory, each leader broadcasts its partition to the same-index leaders
// of other nodes concurrently, and every rank copies the partitions out
// — the "direct shared memory copy ... reduces the number of steps from
// ceil(lg ppn) to number of leaders" observation of Phase 4, applied as a
// standalone collective.
func (e *Engine) Bcast(r *mpi.Rank, s Spec, root int, vec *mpi.Vector) error {
	if s.Design != DesignDPML && s.Design != DesignDPMLPipelined {
		return fmt.Errorf("core: Bcast supports DPML designs, not %q", s.Design)
	}
	if err := e.Validate(s); err != nil {
		return err
	}
	if root < 0 || root >= e.W.Job.NumProcs() {
		return fmt.Errorf("core: Bcast root %d out of range", root)
	}
	job := e.W.Job
	pl := r.Place()
	ppn := job.PPN
	leaders := s.Leaders
	rootPl := job.Place(root)
	rec := e.W.Tracer()
	coll := rec.BeginCollective(r.Rank(), "bcast:"+s.String(), vec.Bytes(), r.Now())
	defer func() { coll.End(r.Now()) }()

	if ppn == 1 {
		sp := rec.BeginSpan(r.Rank(), trace.PhaseInter, r.Now())
		r.Bcast(e.leaderComms[0], rootPl.Node, vec)
		sp.End(r.Now())
		return nil
	}

	seq := e.nextSeq(r)
	rg := e.regions[pl.Node]
	cnts, displs := mpi.BlockPartition(vec.Len(), leaders)

	// Root scatters its partitions into shared memory.
	if r.Rank() == root {
		sp := rec.BeginSpan(r.Rank(), trace.PhaseCopy, r.Now())
		for j := 0; j < leaders; j++ {
			part := vec.Slice(displs[j], displs[j]+cnts[j])
			cross := pl.Socket != e.leaderSocket[j]
			r.MemCopy(cross, part.Bytes())
			rg.Put(seq, leaders, j, pl.LocalRank, part.Clone())
		}
		sp.End(r.Now())
	}
	if pl.LocalRank < leaders {
		j := pl.LocalRank
		sp := rec.BeginSpan(r.Rank(), trace.PhaseInter, r.Now())
		var part *mpi.Vector
		if pl.Node == rootPl.Node {
			slots := rg.GatherWait(r.Proc(), seq, leaders, j, 1)
			part = slots[rootPl.LocalRank].Clone()
		} else {
			part = vec.Slice(displs[j], displs[j]+cnts[j]).Clone()
		}
		// Concurrent inter-node broadcasts, one per leader.
		r.Bcast(e.leaderComms[j], rootPl.Node, part)
		rg.Publish(seq, leaders, j, part)
		sp.End(r.Now())
	}
	sp := rec.BeginSpan(r.Rank(), trace.PhaseBcast, r.Now())
	for j := 0; j < leaders; j++ {
		res := rg.ResultWait(r.Proc(), seq, leaders, j)
		cross := pl.Socket != e.leaderSocket[j]
		r.MemCopy(cross, res.Bytes())
		vec.Slice(displs[j], displs[j]+cnts[j]).CopyFrom(res)
	}
	rg.DoneCopy(seq)
	sp.End(r.Now())
	return nil
}

// PhaseTimes is the calling rank's time spent in each DPML phase of one
// profiled allreduce. Non-leader ranks report zero Reduce/Inter time and
// their Bcast time includes waiting for the leaders.
type PhaseTimes struct {
	Copy   sim.Duration // Phase 1: local copy to shared memory
	Reduce sim.Duration // Phase 2: intra-node reduction (leaders)
	Inter  sim.Duration // Phase 3: inter-node allreduce (leaders)
	Bcast  sim.Duration // Phase 4: local copy to individual processes
}

// Total returns the sum of the phases.
func (t PhaseTimes) Total() sim.Duration { return t.Copy + t.Reduce + t.Inter + t.Bcast }

// AllreduceProfiled runs one DPML allreduce and reports this rank's
// per-phase times, for comparison against the Section 5 model's Eq. 2-6
// terms.
func (e *Engine) AllreduceProfiled(r *mpi.Rank, s Spec, op *mpi.Op, vec *mpi.Vector) (PhaseTimes, error) {
	if s.Design != DesignDPML && s.Design != DesignDPMLPipelined {
		return PhaseTimes{}, fmt.Errorf("core: profiling supports DPML designs, not %q", s.Design)
	}
	if err := e.Validate(s); err != nil {
		return PhaseTimes{}, err
	}
	chunks := 1
	if s.Design == DesignDPMLPipelined {
		chunks = s.Chunks
	}
	var pt PhaseTimes
	e.dpmlInstrumented(r, op, vec, s.Leaders, chunks, s.InterAlg, &pt)
	return pt, nil
}
