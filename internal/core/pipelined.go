package core

import "dpml/internal/mpi"

// pipelinedAllreduce implements the DPML-Pipelined inter-node phase
// (Section 4.2): the leader's partially reduced partition is split into k
// sub-partitions whose allreduces run as interleaved non-blocking state
// machines, followed by a waitall. Each sub-allreduce uses Rabenseifner's
// algorithm (recursive-halving reduce-scatter + recursive-doubling
// allgather), the same bandwidth-optimal scheme the blocking phase picks
// for these sizes, so pipelining adds only the k-fold startup cost of
// Eq. 5 while the interleaving overlaps one chunk's reduction compute
// with the other chunks' transfers.
func (e *Engine) pipelinedAllreduce(r *mpi.Rank, c *mpi.Comm, op *mpi.Op, vec *mpi.Vector, k int) {
	p := c.Size()
	if p == 1 {
		return
	}
	if k > vec.Len() && vec.Len() > 0 {
		k = vec.Len() // no point in zero-length chunks beyond the data
	}
	if k < 1 {
		k = 1
	}
	base := c.CollTagBase(r)
	pof2 := mpi.LargestPow2(p)
	rem := p - pof2

	// Non-power-of-two groups fold pairwise first (whole partition, one
	// message); the pipelined rounds then run on the power-of-two group.
	newRank := r.FoldIn(c, op, vec, rem, base)
	if newRank >= 0 && pof2 > 1 {
		rounds := 0
		for m := 1; m < pof2; m <<= 1 {
			rounds++
		}
		// Keep the whole tag layout inside the collective's tag window:
		// 2*rounds exchange rounds, k sub-channels, plus the fold tags.
		if maxK := (mpi.FoldOutTag - 2) / (2*rounds + 1); k > maxK {
			k = maxK
		}
		e.runPipelinedRab(r, c, op, vec, k, base, pof2, rem, newRank, rounds)
	}
	r.FoldOut(c, vec, rem, base)
}

// exchange is one recorded recursive-halving step, replayed in reverse
// for the allgather phase.
type exchange struct {
	dst                          int
	sentLo, sentHi, kepLo, kepHi int
}

// chunkState is one sub-partition's Rabenseifner state machine.
type chunkState struct {
	view   *mpi.Vector
	tmp    *mpi.Vector
	cnts   []int
	displs []int
	lo, hi int
	steps  []exchange
	mask   int // halving progress
	agIdx  int // allgather progress (index into steps, descending)
	phase  int // 0 = reduce-scatter, 1 = allgather, 2 = done
	round  int // global round number for tag layout
	send   *mpi.Request
	recv   *mpi.Request
}

func (e *Engine) runPipelinedRab(r *mpi.Rank, c *mpi.Comm, op *mpi.Op, vec *mpi.Vector, k, base, pof2, rem, newRank, rounds int) {
	cnts, displs := mpi.BlockPartition(vec.Len(), k)
	chunks := make([]*chunkState, k)

	blockView := func(v *mpi.Vector, ch *chunkState, lo, hi int) *mpi.Vector {
		if lo == hi {
			return v.Slice(ch.displs[lo], ch.displs[lo])
		}
		return v.Slice(ch.displs[lo], ch.displs[hi-1]+ch.cnts[hi-1])
	}

	// Tag layout: 1 + round*k + chunkIndex (0 is the fold tag).
	post := func(ci int) {
		ch := chunks[ci]
		tag := base + 1 + ch.round*k + ci
		switch ch.phase {
		case 0: // recursive halving
			newDst := newRank ^ ch.mask
			dst := mpi.FoldRank(newDst, rem)
			mid := (ch.lo + ch.hi) / 2
			var st exchange
			st.dst = dst
			if newRank < newDst {
				st.sentLo, st.sentHi, st.kepLo, st.kepHi = mid, ch.hi, ch.lo, mid
			} else {
				st.sentLo, st.sentHi, st.kepLo, st.kepHi = ch.lo, mid, mid, ch.hi
			}
			ch.steps = append(ch.steps, st)
			ch.recv = r.Irecv(c, dst, tag, blockView(ch.tmp, ch, st.kepLo, st.kepHi))
			ch.send = r.Isend(c, dst, tag, blockView(ch.view, ch, st.sentLo, st.sentHi))
		case 1: // allgather: undo the halvings in reverse
			st := ch.steps[ch.agIdx]
			ch.recv = r.Irecv(c, st.dst, tag, blockView(ch.view, ch, st.sentLo, st.sentHi))
			ch.send = r.Isend(c, st.dst, tag, blockView(ch.view, ch, st.kepLo, st.kepHi))
		}
	}

	// advance moves a chunk whose round's send and recv both finished to
	// its next round; the reduction compute here overlaps with the other
	// chunks' in-flight messages.
	advance := func(ci int) {
		ch := chunks[ci]
		switch ch.phase {
		case 0:
			st := ch.steps[len(ch.steps)-1]
			r.Reduce(op, blockView(ch.view, ch, st.kepLo, st.kepHi), blockView(ch.tmp, ch, st.kepLo, st.kepHi))
			ch.lo, ch.hi = st.kepLo, st.kepHi
			ch.mask <<= 1
			ch.round++
			if ch.mask < pof2 {
				post(ci)
				return
			}
			ch.phase = 1
			ch.agIdx = len(ch.steps) - 1
			if ch.agIdx < 0 {
				ch.phase = 2
				return
			}
			post(ci)
		case 1:
			ch.agIdx--
			ch.round++
			if ch.agIdx >= 0 {
				post(ci)
				return
			}
			ch.phase = 2
		}
	}

	done := 0
	for ci := 0; ci < k; ci++ {
		view := vec.Slice(displs[ci], displs[ci]+cnts[ci])
		ch := &chunkState{view: view, tmp: view.Like(), mask: 1, phase: 0}
		ch.cnts, ch.displs = mpi.BlockPartition(view.Len(), pof2)
		ch.lo, ch.hi = 0, pof2
		chunks[ci] = ch
		post(ci)
	}
	pending := make([]*mpi.Request, 0, 2*k)
	for done < k {
		progressed := false
		for ci, ch := range chunks {
			if ch.phase == 2 {
				continue
			}
			if ch.send == nil || !ch.send.Done() || !ch.recv.Done() {
				continue
			}
			ch.send, ch.recv = nil, nil
			advance(ci)
			progressed = true
			if ch.phase == 2 {
				done++
			}
		}
		if done == k {
			break
		}
		if progressed {
			continue // re-scan: reductions may have unblocked others
		}
		pending = pending[:0]
		for _, ch := range chunks {
			if ch.phase == 2 || ch.send == nil {
				continue
			}
			if !ch.send.Done() {
				pending = append(pending, ch.send)
			}
			if !ch.recv.Done() {
				pending = append(pending, ch.recv)
			}
		}
		r.WaitAny(pending)
	}
}
