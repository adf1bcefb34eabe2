package mpi

import "dpml/internal/sim"

// Schedule exploration, MPI side: the match-order hook.
//
// The simulator resolves every arrival to an exact virtual instant, so
// the matching queues are normally perfectly FIFO. But two envelopes
// landing at the same instant — or two receives posted at the same
// instant — are concurrent in the model: nothing in the simulated
// physics orders them, only the event tiebreak does. Under an
// exploration salt those ties are re-serialized through per-rank seeded
// streams: an envelope (or posted receive) is inserted at a seeded
// position among the trailing queue entries that carry the same
// instant. Entries at distinct instants are never reordered, so MPI's
// non-overtaking rule is preserved in the only sense the model defines
// it (messages the model actually orders still match in that order).
//
// All queue state is rank-local and only ever touched from the rank's
// node context, and each rank's stream is consumed in an order fixed by
// its own LP's execution — so explored matching is deterministic per
// salt and invariant under shards and host parallelism,
// exactly like the jitter streams.

// drawMatch returns a seeded choice in [0, n] from this rank's
// match-order stream (n+1 possible insertion slots).
func (r *Rank) drawMatch(n int) int {
	w := r.w
	w.mrngs[r.rank] += 0x9e3779b97f4a7c15
	z := w.mrngs[r.rank]
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n+1))
}

// parkUnexpected queues an envelope no receive has been posted for,
// inserting it at a seeded position among the same-instant suffix of
// its bucket when match shuffling is on.
func (r *Rank) parkUnexpected(env *envelope) {
	env.arrived = r.k.Now()
	q := r.unexpected[env.key]
	if r.w.mrngs != nil {
		m := 0
		for m < len(q) && q[len(q)-1-m].arrived == env.arrived {
			m++
		}
		if m > 0 {
			j := len(q) - r.drawMatch(m)
			q = append(q, nil)
			copy(q[j+1:], q[j:])
			q[j] = env
			r.unexpected[env.key] = q
			return
		}
	}
	r.unexpected[env.key] = append(q, env)
}

// postRecv queues a receive no envelope has arrived for, inserting it
// at a seeded position among the same-instant suffix of its bucket when
// match shuffling is on (req.start is the posting instant).
func (r *Rank) postRecv(key msgKey, req *Request) {
	q := r.posted[key]
	if r.w.mrngs != nil {
		m := 0
		for m < len(q) && q[len(q)-1-m].start == req.start {
			m++
		}
		if m > 0 {
			j := len(q) - r.drawMatch(m)
			q = append(q, nil)
			copy(q[j+1:], q[j:])
			q[j] = req
			r.posted[key] = q
			return
		}
	}
	r.posted[key] = append(q, req)
}

// ScheduleDigest returns the 64-bit digest of the schedule the run
// executed (see sim.Coordinator.ScheduleDigest): shard-invariant, and
// equal for behaviorally identical schedules. Zero when Config.Explore
// was nil. Call after Run.
func (w *World) ScheduleDigest() uint64 { return w.coord.ScheduleDigest() }

// TiePairs returns the same-LP same-instant commutation points the run
// observed (see sim.Coordinator.TiePairs). Requires Config.Explore with
// RecordTies. Call after Run.
func (w *World) TiePairs() []sim.TiePair { return w.coord.TiePairs() }
