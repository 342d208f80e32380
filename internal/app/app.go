// Package app defines the replicated application interface executed by RBFT
// nodes, plus reference applications used by examples, tests and benchmarks.
package app

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"rbft/internal/types"
)

// Application is the deterministic state machine replicated by RBFT. Execute
// is invoked with requests in the total order decided by the master instance;
// it must be deterministic (identical inputs produce identical outputs and
// state on every node). The node never modifies a returned result — it
// caches it, encodes it into replies and hands it to observers — so an
// application may return shared, immutable bytes; Null and KV return
// capacity-clipped constants, to which an append copies.
type Application interface {
	Execute(client types.ClientID, id types.RequestID, op []byte) []byte
}

// ConflictKeyer is the optional interface an Application implements to opt
// into parallel execution (internal/exec, docs/EXECUTION.md). Keys declares
// the state an operation touches: two operations conflict when one writes a
// key the other reads or writes. The contract is strict — Execute may only
// read state named in reads∪writes and only mutate state named in writes,
// for every possible op (including malformed ones; return nil,nil for an op
// that touches nothing). An undeclared access makes concurrent execution
// diverge across replicas. Applications that do not implement ConflictKeyer
// are applied serially, byte-identical to a scheduler-less node.
type ConflictKeyer interface {
	// Keys returns the read-set and write-set of op. It must be a pure
	// function of the op bytes and must not touch application state.
	Keys(op []byte) (reads, writes []string)
}

// ReadExecutor is the optional interface an Application implements to serve
// the speculative read-only fast path (docs/CLIENTS.md). ExecuteRead answers
// op against the current local state without going through ordering; it must
// be side-effect free. ok=false marks an op that is not a pure read — the
// node drops such a request and the client falls back to normal ordering.
// Because replicas answer at possibly different points in the execution
// stream, a result is only surfaced to callers once a read quorum (2f+1) of
// replicas returns identical bytes.
type ReadExecutor interface {
	ExecuteRead(op []byte) (result []byte, ok bool)
}

// Null is an application that does nothing and replies with a fixed
// acknowledgement. It is the workload used by the throughput benchmarks,
// where execution cost is modelled separately. It deliberately does NOT
// implement ConflictKeyer, making it the canonical serial-fallback app.
type Null struct{}

var _ Application = Null{}

// Execute implements Application.
func (Null) Execute(types.ClientID, types.RequestID, []byte) []byte {
	return resultAck
}

// Shared results (see Application.Execute).
var (
	resultAck         = constResult("ok")
	resultOK          = constResult("OK")
	resultNotFound    = constResult("NOT_FOUND")
	resultEmpty       = constResult("ERR empty op")
	resultUsagePut    = constResult("ERR usage: PUT key value")
	resultUsageGet    = constResult("ERR usage: GET key")
	resultUsageDelete = constResult("ERR usage: DEL key")
)

// constResult returns s as a capacity-clipped byte slice.
func constResult(s string) []byte {
	b := []byte(s)
	return b[:len(b):len(b)]
}

// Counter is a tiny application maintaining one integer per client; every
// request adds the 8-byte big-endian value in the operation (or 1 if absent)
// and returns the new total. Used by integration tests to check that all
// nodes execute the same sequence.
type Counter struct {
	mu     sync.Mutex
	totals map[types.ClientID]uint64
	log    uint64 // order-sensitive digest of all executions
}

var _ Application = (*Counter)(nil)
var _ ConflictKeyer = (*Counter)(nil)

// NewCounter creates an empty counter application.
func NewCounter() *Counter {
	return &Counter{totals: make(map[types.ClientID]uint64)}
}

// Execute implements Application.
func (c *Counter) Execute(client types.ClientID, id types.RequestID, op []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	delta := uint64(1)
	if len(op) >= 8 {
		delta = binary.BigEndian.Uint64(op)
	}
	c.totals[client] += delta
	// Mix an order-sensitive fingerprint so divergent execution orders are
	// detectable.
	c.log = c.log*1099511628211 + uint64(client)*31 + uint64(id)*17 + delta
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, c.totals[client])
	return out
}

// counterLogKey is the single write key every Counter operation declares.
var counterLogKey = []string{"log"}

// Keys implements ConflictKeyer. Every operation writes the order-sensitive
// fingerprint, so all operations conflict and the execution scheduler
// degenerates to serial in-order apply — exactly what the fingerprint
// requires. The Counter exists to detect ordering divergence; declaring
// per-client keys would let the scheduler reorder across clients and destroy
// the property the integration tests rely on.
func (c *Counter) Keys([]byte) (reads, writes []string) {
	return nil, counterLogKey
}

// Total returns the current total for a client.
func (c *Counter) Total(client types.ClientID) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals[client]
}

// Fingerprint returns the order-sensitive execution digest.
func (c *Counter) Fingerprint() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log
}

// KV is a replicated key-value store with GET/PUT/DEL operations encoded as
// text: "PUT key value", "GET key", "DEL key". Verbs are case-insensitive
// ("put k v" works); keys and values are case-sensitive and taken verbatim
// ("K" and "k" are different keys). A PUT value is everything after the
// second space, spaces included. Empty or whitespace-only operations are
// rejected explicitly. It backs the kvstore example.
//
// The store is sharded: each key lives in one of kvShards independently
// locked segments, so non-conflicting operations scheduled concurrently by
// internal/exec really do apply in parallel.
type KV struct {
	shards [kvShards]kvShard
}

// kvShards is the fixed shard count; a power of two so shardOf is a mask.
const kvShards = 16

type kvShard struct {
	mu   sync.Mutex
	data map[string]string
}

var _ Application = (*KV)(nil)
var _ ConflictKeyer = (*KV)(nil)
var _ ReadExecutor = (*KV)(nil)

// NewKV creates an empty key-value store.
func NewKV() *KV {
	kv := &KV{}
	for i := range kv.shards {
		kv.shards[i].data = make(map[string]string)
	}
	return kv
}

// shardOf maps a key to its segment (FNV-1a, masked).
func (kv *KV) shardOf(key []byte) *kvShard {
	h := uint32(2166136261)
	for _, c := range key {
		h ^= uint32(c)
		h *= 16777619
	}
	return &kv.shards[h&(kvShards-1)]
}

// kvVerb classifies one operation. parseOp is the single parser shared by
// Execute and Keys so the declared conflict keys can never diverge from the
// state Execute actually touches.
type kvVerb int

const (
	kvEmpty kvVerb = iota // empty or whitespace-only op
	kvBadPut
	kvBadGet
	kvBadDel
	kvUnknown
	kvPut
	kvGet
	kvDel
)

// parseOp splits op in place into verb, key and value, all slices of op.
// The raw verb runs to the first space, the key to the second, and the value
// (spaces preserved) is the rest. Verbs match ASCII case-insensitively; the
// key and value are verbatim.
func parseOp(op []byte) (verb kvVerb, key, value, rawVerb []byte) {
	if len(bytes.TrimSpace(op)) == 0 {
		return kvEmpty, nil, nil, nil
	}
	rawVerb, rest, hasKey := bytes.Cut(op, []byte{' '})
	i := bytes.IndexByte(rest, ' ')
	switch {
	case verbIs(rawVerb, "PUT"):
		if i < 0 {
			return kvBadPut, nil, nil, rawVerb
		}
		return kvPut, rest[:i], rest[i+1:], rawVerb
	case verbIs(rawVerb, "GET"):
		if !hasKey || i >= 0 {
			return kvBadGet, nil, nil, rawVerb
		}
		return kvGet, rest, nil, rawVerb
	case verbIs(rawVerb, "DEL"):
		if !hasKey || i >= 0 {
			return kvBadDel, nil, nil, rawVerb
		}
		return kvDel, rest, nil, rawVerb
	default:
		return kvUnknown, nil, nil, rawVerb
	}
}

// verbIs reports whether raw is the upper-case ASCII verb in any case.
func verbIs(raw []byte, verb string) bool {
	if len(raw) != len(verb) {
		return false
	}
	for i, c := range raw {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != verb[i] {
			return false
		}
	}
	return true
}

// Execute implements Application. A PUT allocates the one string that holds
// the stored key and value, a GET hit the copy of its value; everything else
// returns a shared result.
func (kv *KV) Execute(_ types.ClientID, _ types.RequestID, op []byte) []byte {
	verb, key, value, rawVerb := parseOp(op)
	switch verb {
	case kvPut:
		// key and value sit one space apart at the end of op.
		kvs := string(op[len(op)-len(value)-1-len(key):])
		sh := kv.shardOf(key)
		sh.mu.Lock()
		sh.data[kvs[:len(key)]] = kvs[len(key)+1:]
		sh.mu.Unlock()
		return resultOK
	case kvGet:
		return kv.get(key)
	case kvDel:
		sh := kv.shardOf(key)
		sh.mu.Lock()
		delete(sh.data, string(key))
		sh.mu.Unlock()
		return resultOK
	case kvEmpty:
		return resultEmpty
	case kvBadPut:
		return resultUsagePut
	case kvBadGet:
		return resultUsageGet
	case kvBadDel:
		return resultUsageDelete
	default:
		return []byte(fmt.Sprintf("ERR unknown op %q", rawVerb))
	}
}

// get answers a GET from the key's shard under its lock: a copy of the
// stored value, or the shared NOT_FOUND.
func (kv *KV) get(key []byte) []byte {
	sh := kv.shardOf(key)
	sh.mu.Lock()
	v, ok := sh.data[string(key)]
	sh.mu.Unlock()
	if !ok {
		return resultNotFound
	}
	return []byte(v)
}

// ExecuteRead implements ReadExecutor: a GET is answered exactly as Execute
// would answer it for the same store state. Anything that is not a
// well-formed GET is not a read (ok=false) and must travel through ordering.
func (kv *KV) ExecuteRead(op []byte) ([]byte, bool) {
	verb, key, _, _ := parseOp(op)
	if verb != kvGet {
		return nil, false
	}
	return kv.get(key), true
}

// Keys implements ConflictKeyer: GET reads its key; PUT and DEL write theirs.
// Malformed, empty and unknown operations touch no state and declare nothing,
// so they commute with everything. The key string and its one-element slice
// are the only allocations.
func (kv *KV) Keys(op []byte) (reads, writes []string) {
	verb, key, _, _ := parseOp(op)
	switch verb {
	case kvGet:
		return []string{string(key)}, nil
	case kvPut, kvDel:
		return nil, []string{string(key)}
	default:
		return nil, nil
	}
}

// Len returns the number of stored keys.
func (kv *KV) Len() int {
	n := 0
	for i := range kv.shards {
		sh := &kv.shards[i]
		sh.mu.Lock()
		n += len(sh.data)
		sh.mu.Unlock()
	}
	return n
}

// Snapshot copies the full store (tests compare replica states with it).
func (kv *KV) Snapshot() map[string]string {
	out := make(map[string]string)
	for i := range kv.shards {
		sh := &kv.shards[i]
		sh.mu.Lock()
		for k, v := range sh.data {
			out[k] = v
		}
		sh.mu.Unlock()
	}
	return out
}
