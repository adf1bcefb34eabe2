package mpi

import (
	"testing"

	"dpml/internal/sim"
	"dpml/internal/topology"
)

// TestTransitPoolReusesEagerClones ping-pongs a sequence of same-shape
// eager messages between two nodes and checks the free lists actually
// recycle: each clone is drawn on the sending node and released on the
// receiving one, where the reply draws it again, so one clone carries
// every message and ends in the last receiver's pool.
func TestTransitPoolReusesEagerClones(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	const rounds = 16
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewVector(Float64, 8)
		for i := 0; i < rounds; i++ {
			if r.Rank() == 0 {
				v.Fill(float64(i))
				r.Send(c, 1, 0, v)
				r.Recv(c, 1, 0, v)
			} else {
				r.Recv(c, 0, 0, v)
				if got := v.At(0); got != float64(i) {
					t.Errorf("round %d: received %v", i, got)
				}
				r.Send(c, 0, 0, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	key := vecShape{dtype: Float64, n: 8}
	if n0, n1 := len(w.trans[0][key]), len(w.trans[1][key]); n0 != 1 || n1 != 0 {
		t.Fatalf("pools hold %d (node 0) and %d (node 1) clones after %d round trips, want 1 and 0 (reuse)",
			n0, n1, rounds)
	}
}

// TestIntraNodeSendCopiesIntoPostedRecv checks direct intra-node
// delivery: a send that finds its receive posted copies straight into the
// receive buffer and draws no transit clone, while a send that arrives
// first parks one clone, released when the receive matches it. Either
// way the receiver sees the buffer as it was at the send, not the
// sender's later overwrite.
func TestIntraNodeSendCopiesIntoPostedRecv(t *testing.T) {
	for _, tc := range []struct {
		name       string
		recvLate   bool
		wantClones int
	}{
		{"posted-first", false, 0},
		{"recv-late", true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := smallWorld(t, topology.ClusterB(), 1, 2, Config{})
			err := w.Run(func(r *Rank) error {
				c := w.CommWorld()
				v := NewVector(Float64, 8)
				if r.Rank() == 0 {
					if !tc.recvLate {
						r.Proc().Sleep(10 * sim.Microsecond) // receive posts first
					}
					v.Fill(5)
					r.Send(c, 1, 0, v)
					v.Fill(99)
					return nil
				}
				if tc.recvLate {
					r.Proc().Sleep(10 * sim.Microsecond) // message parks first
				}
				r.Recv(c, 0, 0, v)
				for i := 0; i < v.Len(); i++ {
					if got := v.At(i); got != 5 {
						t.Errorf("element %d = %v, want 5 (the value at send time)", i, got)
						break
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(w.trans[0][vecShape{dtype: Float64, n: 8}]); got != tc.wantClones {
				t.Fatalf("node 0's pool holds %d clones, want %d", got, tc.wantClones)
			}
		})
	}
}

// TestTransitPoolIgnoresRendezvous checks that a rendezvous transfer —
// whose envelope carries the sender's own buffer, not a clone — leaves
// nothing in the pool and does not capture the sender's storage.
func TestTransitPoolIgnoresRendezvous(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	const n = 1 << 20 // 8 MB of float64 >> eager threshold
	var sent *Vector
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewVector(Float64, n)
		if r.Rank() == 0 {
			v.Fill(7)
			sent = v
			r.Send(c, 1, 0, v)
		} else {
			r.Recv(c, 0, 0, v)
			if v.At(n-1) != 7 {
				t.Errorf("received %v, want 7", v.At(n-1))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for node, pool := range w.trans {
		for _, free := range pool {
			for _, f := range free {
				if f == sent {
					t.Fatal("pool captured the rendezvous sender's buffer")
				}
			}
		}
		if free := pool[vecShape{dtype: Float64, n: n}]; len(free) != 0 {
			t.Fatalf("rendezvous transfer left %d vectors in node %d's pool, want 0", len(free), node)
		}
	}
}

// TestTransitPoolCloneIsIndependent guards the aliasing hazard: a pooled
// clone handed to a new send must not share storage with the user buffer
// it copies, so mutating the source after Isend cannot corrupt the
// in-flight payload.
func TestTransitPoolCloneIsIndependent(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 1, 2, Config{})
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		if r.Rank() == 0 {
			v := NewVector(Float64, 4)
			// Prime the pool with one retired clone, then check the next
			// send's payload survives the sender scribbling on v.
			v.Fill(1)
			r.Send(c, 1, 0, v)
			v.Fill(2)
			req := r.Isend(c, 1, 0, v)
			v.Fill(99)
			r.Wait(req)
		} else {
			v := NewVector(Float64, 4)
			r.Recv(c, 0, 0, v)
			r.Recv(c, 0, 0, v)
			if got := v.At(0); got != 2 {
				t.Errorf("in-flight payload read %v, want 2 (sender overwrote its buffer)", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
