package mpi

// Scan computes an inclusive prefix reduction: comm rank i ends with
// op(vec_0, ..., vec_i). The algorithm is the standard lg(p)-step
// distance-doubling scan: at distance d every rank sends its running
// partial to rank+d and folds the partial received from rank-d into both
// its result and its outgoing partial. Requires a commutative-associative
// op (all predefined ops are).
func (r *Rank) Scan(c *Comm, op *Op, vec *Vector) {
	me := c.mustRank(r)
	p := c.Size()
	base := c.CollTagBase(r)
	if p == 1 {
		return
	}
	// partial carries op(vec_{me-d+1..me}) as d grows; vec accumulates
	// the final prefix.
	partial := vec.Clone()
	tmp := vec.Like()
	round := 0
	for d := 1; d < p; d <<= 1 {
		var sq, rq *Request
		if me+d < p {
			sq = r.Isend(c, me+d, base+round, partial)
		}
		if me-d >= 0 {
			rq = r.Irecv(c, me-d, base+round, tmp)
		}
		if sq != nil {
			r.Wait(sq)
		}
		if rq != nil {
			r.Wait(rq)
			r.Reduce(op, vec, tmp)
			r.Reduce(op, partial, tmp)
		}
		round++
	}
}
