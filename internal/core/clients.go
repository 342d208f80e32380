package core

import (
	"container/list"
	"time"

	"rbft/internal/obs"
	"rbft/internal/types"
)

// The client table is the node's front door state: per-client verification
// and reply-cache bookkeeping for every client the node has heard from. The
// apply stage is its only user, so it is one map with no lock. It can enforce
// a client-count bound with LRU eviction instead of growing without limit
// (docs/CLIENTS.md).
//
// Eviction is safe because nothing in a clientState is needed for
// correctness once the client is quiescent:
//
//   - Verification state is rebuilt through the normal preverify path when
//     an evicted client retransmits (a blacklisted client that is evicted and
//     returns simply fails signature verification again).
//   - The reply cache is an optimisation; losing it turns a retransmission
//     of an executed request into a silent drop, never a re-execution,
//     because the executed-through watermark survives eviction (below).
//   - Clients with live protocol state — pending request bodies or
//     out-of-order executed IDs above the watermark — are not eligible for
//     eviction at all, so in-flight requests never lose their footing.
//
// What must NOT be lost is executed-ness: replicas agree on the execution
// order, and re-executing a request because its record was evicted would
// fork the application state. The table therefore keeps a watermarks map
// recording the contiguous executed-through ID of every evicted client
// (~16 bytes per client that ever executed and was evicted — the documented
// price of safe eviction), and a recreated clientState starts from it.

// clientTable is the bounded client map. The metric handles are nil-safe and
// wired once by SetRegistry before the node is driven.
type clientTable struct {
	clients map[types.ClientID]*clientState
	// max bounds the resident clients (0 = unbounded, Config.MaxClients).
	max int
	// lru orders resident clients by last touch (front = most recent). It is
	// maintained only when the table is bounded; an unbounded table skips
	// the list entirely.
	lru *list.List
	// watermarks preserves the executed-through watermark of evicted
	// clients so re-admission can never re-execute (see package comment).
	watermarks map[types.ClientID]types.RequestID

	size      *obs.Gauge
	evictions *obs.Counter
}

func newClientTable(maxClients int) *clientTable {
	t := &clientTable{clients: make(map[types.ClientID]*clientState)}
	if maxClients > 0 {
		t.max = maxClients
		t.lru = list.New()
		t.watermarks = make(map[types.ClientID]types.RequestID)
	}
	return t
}

// get returns the clientState for c, creating (and, when the table is over
// its bound, evicting) as needed. It returns the evicted client, if any, so
// the caller can trace it.
func (t *clientTable) get(c types.ClientID) (cs, evicted *clientState) {
	if cs = t.clients[c]; cs != nil {
		if cs.lruElem != nil {
			t.lru.MoveToFront(cs.lruElem)
		}
		return cs, nil
	}
	cs = &clientState{id: c, execThrough: t.watermarks[c]}
	t.clients[c] = cs
	if t.max > 0 {
		cs.lruElem = t.lru.PushFront(cs)
		if len(t.clients) > t.max {
			evicted = t.evict()
		}
	}
	t.size.Set(int64(len(t.clients)))
	return cs, evicted
}

// evict removes the least-recently-used eligible client. Clients with
// pending request bodies or out-of-order executed IDs above the watermark
// carry live protocol state and are skipped; if every resident client is
// ineligible (all mid-flight), the table temporarily exceeds its bound rather
// than corrupting in-flight requests.
func (t *clientTable) evict() *clientState {
	for e := t.lru.Back(); e != nil; e = e.Prev() {
		cs := e.Value.(*clientState)
		if cs.pendingBodies > 0 || len(cs.execRecent) > 0 {
			continue
		}
		t.lru.Remove(e)
		delete(t.clients, cs.id)
		if cs.execThrough > 0 {
			t.watermarks[cs.id] = cs.execThrough
		}
		t.evictions.Inc()
		return cs
	}
	return nil
}

// executed reports whether ref's (client, id) executed here, without
// creating a table entry: such a ref is decided for the replicas.
func (t *clientTable) executed(ref types.RequestRef) bool {
	if cs := t.clients[ref.Client]; cs != nil {
		return cs.isExecuted(ref.ID)
	}
	return ref.ID <= t.watermarks[ref.Client]
}

// cachedReply is one reply-cache slot.
type cachedReply struct {
	id     types.RequestID
	result []byte
}

// clientState tracks per-client verification, reply and execution state. It
// lives in the clientTable (clients.go); id and lruElem are the table's
// bookkeeping handles.
type clientState struct {
	id          types.ClientID
	lruElem     *list.Element
	blacklisted bool
	replies     []cachedReply // most recent last
	// pendingBodies bounds the per-client stored request bodies, limiting
	// the memory an equivocating client can pin.
	pendingBodies int
	// execThrough and execRecent together record which of the client's
	// request IDs have executed: every ID <= execThrough has, plus the
	// above-watermark IDs in execRecent (out-of-order executions whose
	// predecessors are still in flight; drained into the watermark as the
	// gap closes). Unlike the reply cache this knowledge is never evicted —
	// the watermark survives table eviction — so a stale retransmission can
	// be dropped but never re-executed.
	execThrough types.RequestID
	execRecent  map[types.RequestID]bool
}

// markExecuted records that request id executed, advancing the contiguous
// watermark when possible. Gaps (an out-of-order execution across ordering
// lanes while an earlier ID is still in flight) park in execRecent and drain
// as soon as the missing IDs execute; clients issue IDs sequentially, so the
// set stays bounded by the client's in-flight window.
func (cs *clientState) markExecuted(id types.RequestID) {
	if id <= cs.execThrough {
		return
	}
	if id == cs.execThrough+1 {
		cs.execThrough = id
		for len(cs.execRecent) > 0 && cs.execRecent[cs.execThrough+1] {
			delete(cs.execRecent, cs.execThrough+1)
			cs.execThrough++
		}
		return
	}
	if cs.execRecent == nil {
		cs.execRecent = make(map[types.RequestID]bool)
	}
	cs.execRecent[id] = true
}

// isExecuted reports whether request id has executed on this node.
func (cs *clientState) isExecuted(id types.RequestID) bool {
	return id <= cs.execThrough || cs.execRecent[id]
}

// ReplyCacheSize bounds each client's reply cache.
const ReplyCacheSize = 256

// cacheReply appends a reply to the bounded per-client cache, dropping the
// oldest entry beyond ReplyCacheSize. Dropping a cached reply never forgets
// that the request executed — that lives in the executed watermark — so
// every eviction path shares this one method and the bound cannot silently
// diverge from the executed bookkeeping.
func (cs *clientState) cacheReply(id types.RequestID, result []byte) {
	cs.replies = append(cs.replies, cachedReply{id: id, result: result})
	if len(cs.replies) > ReplyCacheSize {
		cs.replies = cs.replies[1:]
	}
}

// client returns c's table entry, creating it (and possibly evicting the
// LRU quiescent client) on first sight. now timestamps the eviction trace
// event, whose Count is the table's size after the eviction.
func (n *Node) client(c types.ClientID, now time.Time) *clientState {
	cs, evicted := n.table.get(c)
	if evicted != nil && n.tr.Enabled() {
		n.tr.Trace(obs.Event{
			At: now, Type: obs.EvClientEvicted, Client: evicted.id, Count: len(n.table.clients),
		})
	}
	return cs
}

// ClientCount returns the number of resident client-table entries (tests
// and the bounded-memory gate).
func (n *Node) ClientCount() int { return len(n.table.clients) }
