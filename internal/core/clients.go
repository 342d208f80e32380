package core

import (
	"container/list"
	"sync"
	"time"

	"rbft/internal/obs"
	"rbft/internal/types"
)

// The client table is the node's front door state: per-client verification,
// reply-cache and admission bookkeeping for every client the node has heard
// from. It is sharded by client ID into lock-striped shards so that (a) a
// million distinct clients cannot serialize the ingress path on one mutex —
// admission control runs concurrently with the apply stage — and (b) the
// table can enforce a global client-count bound with per-shard LRU eviction
// instead of growing without limit (docs/CLIENTS.md).
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
// fork the application state. Each shard therefore keeps a watermarks map
// recording the contiguous executed-through ID of every evicted client
// (~16 bytes per client that ever executed and was evicted — the documented
// price of safe eviction), and a recreated clientState starts from it.

// defaultClientShards is the shard count when Config.ClientShards is zero:
// enough stripes that admission control and the apply loop rarely contend,
// small enough that per-shard metrics stay readable.
const defaultClientShards = 8

// clientShard is one lock-striped segment of the client table. All fields
// are guarded by mu; the metric handles are nil-safe and wired once by
// SetRegistry before the node is driven.
type clientShard struct {
	mu      sync.Mutex
	clients map[types.ClientID]*clientState
	// lru orders resident clients by last touch (front = most recent). It is
	// maintained only when the table is bounded; an unbounded table skips
	// the list entirely.
	lru *list.List
	// watermarks preserves the executed-through watermark of evicted
	// clients so re-admission can never re-execute (see package comment).
	watermarks map[types.ClientID]types.RequestID
	// inflight is the admission-control pending count (requests admitted at
	// ingress and not yet applied).
	inflight int

	size      *obs.Gauge
	evictions *obs.Counter
}

// clientTable is the sharded, bounded client map.
type clientTable struct {
	shards []clientShard
	// perShardCap bounds each shard's resident clients (0 = unbounded). The
	// global bound Config.MaxClients is split evenly across shards.
	perShardCap int
	// budget is the per-shard admission budget (0 = admission off).
	budget int

	admitted *obs.Counter
	rejected *obs.Counter
}

// evictInfo reports one eviction performed during a get.
type evictInfo struct {
	client types.ClientID
	size   int // shard size after the eviction
}

func newClientTable(shards, maxClients, budget int) *clientTable {
	if shards <= 0 {
		shards = defaultClientShards
	}
	t := &clientTable{shards: make([]clientShard, shards), budget: budget}
	if maxClients > 0 {
		t.perShardCap = (maxClients + shards - 1) / shards
		if t.perShardCap < 1 {
			t.perShardCap = 1
		}
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.clients = make(map[types.ClientID]*clientState)
		if t.perShardCap > 0 {
			sh.lru = list.New()
			sh.watermarks = make(map[types.ClientID]types.RequestID)
		}
	}
	return t
}

func (t *clientTable) shardOf(c types.ClientID) *clientShard {
	return &t.shards[uint64(c)%uint64(len(t.shards))]
}

// get returns the clientState for c, creating (and, when the shard is over
// its cap, evicting) as needed. The boolean reports whether an eviction
// happened so the caller can trace it.
func (t *clientTable) get(c types.ClientID) (*clientState, evictInfo, bool) {
	sh := t.shardOf(c)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cs := sh.clients[c]; cs != nil {
		if cs.lruElem != nil {
			sh.lru.MoveToFront(cs.lruElem)
		}
		return cs, evictInfo{}, false
	}
	cs := &clientState{id: c}
	if sh.watermarks != nil {
		cs.execThrough = sh.watermarks[c]
	}
	sh.clients[c] = cs
	var ev evictInfo
	evicted := false
	if t.perShardCap > 0 {
		cs.lruElem = sh.lru.PushFront(cs)
		if len(sh.clients) > t.perShardCap {
			ev, evicted = sh.evictLocked()
		}
	}
	sh.size.Set(int64(len(sh.clients)))
	return cs, ev, evicted
}

// evictLocked removes the least-recently-used eligible client. Clients with
// pending request bodies or out-of-order executed IDs above the watermark
// carry live protocol state and are skipped; if every resident client is
// ineligible (all mid-flight), the shard temporarily exceeds its cap rather
// than corrupting in-flight requests.
func (sh *clientShard) evictLocked() (evictInfo, bool) {
	for e := sh.lru.Back(); e != nil; e = e.Prev() {
		cs := e.Value.(*clientState)
		if cs.pendingBodies > 0 || len(cs.execRecent) > 0 {
			continue
		}
		sh.lru.Remove(e)
		delete(sh.clients, cs.id)
		if cs.execThrough > 0 {
			sh.watermarks[cs.id] = cs.execThrough
		}
		sh.evictions.Inc()
		return evictInfo{client: cs.id, size: len(sh.clients)}, true
	}
	return evictInfo{}, false
}

// executed is the replicas' decided hook (pbft.Instance.SetDecided): whether
// ref's (client, id) executed here, without creating a table entry.
func (t *clientTable) executed(ref types.RequestRef) bool {
	sh := t.shardOf(ref.Client)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cs := sh.clients[ref.Client]; cs != nil {
		return cs.isExecuted(ref.ID)
	}
	return ref.ID <= sh.watermarks[ref.Client]
}

// count returns the resident client total across shards (tests and the
// bounded-memory gate).
func (t *clientTable) count() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.clients)
		sh.mu.Unlock()
	}
	return n
}

// admit reserves one slot of c's shard admission budget. It returns false —
// reject-with-busy backpressure — when the shard's inflight count has
// reached the budget; with no budget configured every request is admitted.
// Safe for concurrent use with the apply stage: it touches only
// shard-mutex-guarded state and atomic counters.
func (t *clientTable) admit(c types.ClientID) bool {
	if t.budget <= 0 {
		t.admitted.Inc()
		return true
	}
	sh := t.shardOf(c)
	sh.mu.Lock()
	over := sh.inflight >= t.budget
	if !over {
		sh.inflight++
	}
	sh.mu.Unlock()
	if over {
		t.rejected.Inc()
		return false
	}
	t.admitted.Inc()
	return true
}

// release returns one admission slot after the admitted request left the
// apply stage. No-op when admission is off.
func (t *clientTable) release(c types.ClientID) {
	if t.budget <= 0 {
		return
	}
	sh := t.shardOf(c)
	sh.mu.Lock()
	if sh.inflight > 0 {
		sh.inflight--
	}
	sh.mu.Unlock()
}

// cachedReply is one reply-cache slot.
type cachedReply struct {
	id     types.RequestID
	result []byte
}

// clientState tracks per-client verification, reply and execution state. It
// lives in one clientTable shard (clients.go); id and lruElem are the
// shard's bookkeeping handles.
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

// cacheReply appends a reply to the bounded per-client cache, dropping the
// oldest entry beyond bound. Dropping a cached reply never forgets that the
// request executed — that lives in the executed watermark — so every
// eviction path shares this one method and the bound cannot silently
// diverge from the executed bookkeeping.
func (cs *clientState) cacheReply(id types.RequestID, result []byte, bound int) {
	cs.replies = append(cs.replies, cachedReply{id: id, result: result})
	if len(cs.replies) > bound {
		cs.replies = cs.replies[1:]
	}
}

// client returns c's table entry, creating it (and possibly evicting the
// LRU quiescent client of c's shard) on first sight. now timestamps the
// eviction trace event.
func (n *Node) client(c types.ClientID, now time.Time) *clientState {
	cs, ev, evicted := n.table.get(c)
	if evicted && n.tr.Enabled() {
		n.tr.Trace(obs.Event{
			At: now, Type: obs.EvClientEvicted, Client: ev.client, Count: ev.size,
		})
	}
	return cs
}

// ClientCount returns the number of resident client-table entries (tests
// and the bounded-memory gate).
func (n *Node) ClientCount() int { return n.table.count() }
