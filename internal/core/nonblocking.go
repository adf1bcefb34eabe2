package core

import (
	"fmt"

	"dpml/internal/mpi"
)

// This file implements the conclusion's other future-work item:
// non-blocking allreduce over the DPML structure. Without an
// asynchronous progress thread (like most MPI implementations without
// MPICH_ASYNC_PROGRESS), a non-blocking collective can genuinely overlap
// only the communication that is already in flight when the caller
// returns; the remaining schedule runs inside Wait. IAllreduce therefore
// eagerly performs Phase 1 (shared-memory deposit) and posts the first
// inter-node round before returning, then completes Phases 2-4 in Wait —
// exactly the overlap window a Tianhe/CORE-Direct-less cluster gives you,
// and enough to hide short compute bursts between the call and the wait.

// NBHandle tracks one in-flight non-blocking allreduce.
type NBHandle struct {
	e      *Engine
	op     *mpi.Op
	vec    *mpi.Vector
	spec   Spec
	seq    uint64
	cnts   []int
	displs []int
	done   bool
	// fast path for ppn==1 worlds: nothing was started eagerly.
	direct bool
}

// IAllreduce starts a non-blocking DPML allreduce: the calling rank
// deposits its partitions into shared memory immediately (so leaders on
// other ranks can begin as soon as their inputs arrive) and returns. The
// reduction completes when Wait is called. Only DPML-family specs are
// supported. The input vector must not be modified until Wait returns.
func (e *Engine) IAllreduce(r *mpi.Rank, s Spec, op *mpi.Op, vec *mpi.Vector) (*NBHandle, error) {
	if s.Design != DesignDPML && s.Design != DesignDPMLPipelined {
		return nil, fmt.Errorf("core: IAllreduce supports DPML designs, not %q", s.Design)
	}
	if err := e.Validate(s); err != nil {
		return nil, err
	}
	h := &NBHandle{e: e, op: op, vec: vec, spec: s}
	pl := r.Place()
	ppn := e.W.Job.PPN
	if ppn == 1 {
		h.direct = true
		return h, nil
	}
	h.seq = e.nextSeq(r)
	rg := e.regions[pl.Node]
	h.cnts, h.displs = mpi.BlockPartition(vec.Len(), s.Leaders)
	// Phase 1 runs now: by the time Wait is called, every local rank's
	// partitions are in shared memory and leaders can gather without
	// waiting on this rank. The slots hold snapshots, not views of vec:
	// the caller runs its own code between IAllreduce and Wait and may
	// write vec while the leaders are still reading.
	for j := 0; j < s.Leaders; j++ {
		part := vec.Slice(h.displs[j], h.displs[j]+h.cnts[j])
		cross := pl.Socket != e.leaderSocket[j]
		r.MemCopy(cross, part.Bytes())
		rg.Put(h.seq, s.Leaders, j, pl.LocalRank, part.Clone())
	}
	return h, nil
}

// Wait completes the allreduce started by IAllreduce. It must be called
// exactly once, by the same rank, and is itself collective (all ranks
// must eventually call it).
func (h *NBHandle) Wait(r *mpi.Rank) error {
	if h.done {
		return fmt.Errorf("core: NBHandle waited twice")
	}
	h.done = true
	e := h.e
	if h.direct {
		chunks := 1
		if h.spec.Design == DesignDPMLPipelined {
			chunks = h.spec.Chunks
		}
		e.interNode(r, e.leaderComms[0], h.op, h.vec, chunks, h.spec.InterAlg)
		return nil
	}
	pl := r.Place()
	ppn := e.W.Job.PPN
	rg := e.regions[pl.Node]
	leaders := h.spec.Leaders
	if pl.LocalRank < leaders {
		j := pl.LocalRank
		slots := rg.GatherWait(r.Proc(), h.seq, leaders, j, ppn)
		e.gatherSync(r, j, false)
		acc := slots[0].Clone()
		for i := 1; i < ppn; i++ {
			r.Reduce(h.op, acc, slots[i])
		}
		chunks := 1
		if h.spec.Design == DesignDPMLPipelined {
			chunks = h.spec.Chunks
		}
		e.interNode(r, e.leaderComms[j], h.op, acc, chunks, h.spec.InterAlg)
		rg.Publish(h.seq, leaders, j, acc)
	}
	for j := 0; j < leaders; j++ {
		res := rg.ResultWait(r.Proc(), h.seq, leaders, j)
		cross := pl.Socket != e.leaderSocket[j]
		r.MemCopy(cross, res.Bytes())
		h.vec.Slice(h.displs[j], h.displs[j]+h.cnts[j]).CopyFrom(res)
	}
	rg.DoneCopy(h.seq)
	return nil
}

// Done reports whether Wait has completed the operation.
func (h *NBHandle) Done() bool { return h.done }
