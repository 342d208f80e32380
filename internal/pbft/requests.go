package pbft

import (
	"slices"

	"rbft/internal/types"
)

// Per-request state (docs/ORDERING.md, "Per-request state") lives in the
// node's one request store: a record per ref, with an entry per replica. A
// replica resolves each ref of a PRE-PREPARE once and keeps the record with
// the proposal (phase.recs); its node hands it the record at dispatch
// (AddRecord) and retires its entry at execution (ReqState.Retire).

// ReqState is one replica's state for one ref; the zero value is none.
type ReqState struct {
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

// Idle reports whether the entry holds no state.
func (r *ReqState) Idle() bool { return !r.known && r.at == 0 && len(r.waiters) == 0 }

// Retire is the node executing the request: the replica forgets the ref
// once it has delivered it.
func (r *ReqState) Retire() {
	r.retire = true
	r.settle()
}

// settle zeroes the entry, and reports it, once nothing needs it: no
// PRE-PREPARE waits on it, and it is delivered and retired or was never known.
func (r *ReqState) settle() bool {
	if len(r.waiters) > 0 || r.at == 0 && r.known || r.at != 0 && !r.retire {
		return false
	}
	*r = ReqState{waiters: r.waiters[:0]}
	return true
}

// Record is the node's record of one ref.
type Record interface {
	Entry(inst types.InstanceID) *ReqState // instance inst's entry
	Holds(ref types.RequestRef) bool       // still ref's: one a proposal kept may have gone
}

// Store is the node's request store; a replica built without a node keeps its
// own (ownStore). A record goes once its node is done with it and no entry of
// it holds state.
type Store interface {
	// Request returns ref's record, creating one if the node holds none, or
	// nil if ref is decided for inst: it executed on the node, and inst holds
	// no state for it.
	Request(inst types.InstanceID, ref types.RequestRef) Record
	Settled(rec Record)                     // an entry of rec went idle
	Each(fn func(types.RequestRef, Record)) // every record, in no fixed order
}

// ownStore holds a record per ref its one replica holds state for.
type ownStore struct {
	recs map[types.RequestRef]*ownRecord
	slab []ownRecord // records not yet taken
}

type ownRecord struct {
	ref types.RequestRef // zero once gone
	e   ReqState
}

func (r *ownRecord) Entry(types.InstanceID) *ReqState { return &r.e }
func (r *ownRecord) Holds(ref types.RequestRef) bool  { return r.ref == ref }

func (s *ownStore) Request(_ types.InstanceID, ref types.RequestRef) Record {
	r := s.recs[ref]
	if r == nil {
		if len(s.slab) == 0 {
			s.slab = make([]ownRecord, 64)
		}
		r, s.slab = &s.slab[0], s.slab[1:]
		r.ref, s.recs[ref] = ref, r
	}
	return r
}

func (s *ownStore) Settled(rec Record) {
	r := rec.(*ownRecord)
	delete(s.recs, r.ref)
	r.ref = types.RequestRef{}
}

func (s *ownStore) Each(fn func(types.RequestRef, Record)) {
	for ref, r := range s.recs {
		fn(ref, r) //rbft:ignore maprange -- Each promises no order; its caller sorts
	}
}

// Footprint sums the lengths of the tables peers' messages fill: log slots,
// CHECKPOINT vote vectors and VIEW-CHANGE slots; request records are the store's.
func (in *Instance) Footprint() int {
	return len(in.log) + len(in.checkpoints) + len(in.viewChanges)
}

// entry returns the replica's entry in rec, nil for a decided ref.
func (in *Instance) entry(rec Record) *ReqState {
	if rec == nil {
		return nil
	}
	return rec.Entry(in.cfg.Instance)
}

// settle zeroes rec's entry r once nothing needs it, and tells the store.
func (in *Instance) settle(rec Record, r *ReqState) {
	if r.settle() {
		in.store.Settled(rec)
	}
}

// unwait drops the waiters of s's proposal before another proposal replaces
// it or a NEW-VIEW voids it: a PREPARE waits only on the proposal it vouches
// for. A record with a waiter for it is in the store and names a ref of it.
func (in *Instance) unwait(s *slot) {
	for _, rec := range s.recs {
		if s.waiting == 0 {
			break
		}
		if r := in.entry(rec); r != nil {
			if j := slices.Index(r.waiters, waiter{view: s.view, seq: s.seq}); j >= 0 {
				r.waiters = slices.Delete(r.waiters, j, j+1)
				s.waiting--
				in.settle(rec, r)
			}
		}
	}
	s.waiting = 0
}
