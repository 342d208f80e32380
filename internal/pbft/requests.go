package pbft

import (
	"slices"

	"rbft/internal/types"
)

// Per-request state (docs/ORDERING.md, "Per-request state"): one record per
// request ref while it is in flight on the node, one lookup per event on it.
// A record goes when the node reports the ref executed (Executed: at once if
// delivered, else at its delivery), or with its batch when retainDelivered
// prunes it. A ref without a record that the node reports decided counts as
// delivered. No request-keyed map is ever scanned to retire records.

// reqState is one request ref's record.
type reqState struct {
	known  bool         // the node collected f+1 PROPAGATEs (AddRequest)
	retire bool         // executed, or out of retention: go once delivered
	at     types.SeqNum // delivered at this sequence number; 0 until then
	// waiters are the PRE-PREPAREs whose PREPARE waits on the ref, each tied
	// to its (view, seq) proposal and dropped with it (unwait).
	waiters []waiter
}

type waiter struct {
	view types.View
	seq  types.SeqNum
}

// SetDecided installs the node's answer to "did ref's (client, id) execute
// on this node?", asked only for refs the replica holds no record of.
func (in *Instance) SetDecided(decided func(types.RequestRef) bool) { in.decided = decided }

// Executed tells the replica that its node executed ref. It has no effects.
func (in *Instance) Executed(ref types.RequestRef) {
	if r := in.reqs[ref]; r != nil {
		r.retire = true
		in.settle(ref, r)
	}
}

// InFlight returns how many request refs the replica holds a record of.
func (in *Instance) InFlight() int { return len(in.reqs) }

// Footprint sums the lengths of the tables peers' messages fill: request
// records, log slots, CHECKPOINT vote vectors and VIEW-CHANGE slots.
func (in *Instance) Footprint() int {
	return len(in.reqs) + len(in.log) + len(in.checkpoints) + len(in.viewChanges)
}

// track returns ref's record, creating it, or nil when the replica holds
// none and its node reports ref decided.
func (in *Instance) track(ref types.RequestRef) *reqState {
	if r := in.reqs[ref]; r != nil {
		return r
	}
	if in.decided != nil && in.decided(ref) {
		return nil
	}
	if len(in.free) == 0 {
		slab := make([]reqState, 64) // records are recycled, never freed
		for i := range slab {
			in.free = append(in.free, &slab[i])
		}
	}
	r := in.free[len(in.free)-1]
	in.free = in.free[:len(in.free)-1]
	in.reqs[ref] = r
	return r
}

// settle recycles ref's record once nothing needs it: no PRE-PREPARE waits
// on it, and it is delivered and retired, or was never known here.
func (in *Instance) settle(ref types.RequestRef, r *reqState) {
	if len(r.waiters) > 0 || r.at == 0 && r.known || r.at != 0 && !r.retire {
		return
	}
	delete(in.reqs, ref)
	*r = reqState{waiters: r.waiters}
	in.free = append(in.free, r)
}

// unwait drops the waiters of s's proposal before another proposal replaces
// it or a NEW-VIEW voids it: a PREPARE waits only on the proposal it vouches
// for.
func (in *Instance) unwait(s *slot) {
	for _, ref := range s.batch {
		if s.waiting == 0 {
			break
		}
		if r := in.reqs[ref]; r != nil {
			if i := slices.Index(r.waiters, waiter{view: s.view, seq: s.seq}); i >= 0 {
				r.waiters = slices.Delete(r.waiters, i, i+1)
				s.waiting--
				in.settle(ref, r)
			}
		}
	}
	s.waiting = 0
}
