// Package core implements the RBFT node: the Verification, Propagation,
// Dispatch & Monitoring and Execution modules from the paper, the f+1 local
// protocol-instance replicas, and the protocol instance change mechanism.
//
// Like the pbft package, a Node is a pure state machine driven by a runtime:
// inputs are preverified messages, preverification failures and timer ticks;
// outputs are messages to send, executed requests, replies, instance-change
// events and NIC closures. The discrete-event simulator and the real-time
// TCP/UDP runtime both drive the same Node code, the one way there is: run
// Preverifier() on the raw input, hand the result to OnVerified or
// OnIngressFailure in arrival order, and call Tick when NextWake is due
// (docs/PIPELINE.md).
//
// The files follow the paper's modules: ingress.go (Verification's apply half
// and the flood defence), propagation.go, dispatch.go (Dispatch & Monitoring),
// execution.go, instancechange.go; lanes.go is the multi-primary merge,
// clients.go the client table, durability.go the WAL hooks.
package core

import (
	"container/list"
	"fmt"
	"slices"
	"time"

	"rbft/internal/app"
	"rbft/internal/crypto"
	"rbft/internal/exec"
	"rbft/internal/message"
	"rbft/internal/monitor"
	"rbft/internal/obs"
	"rbft/internal/pbft"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// Config parameterises an RBFT node.
type Config struct {
	// Cluster is the 3f+1 cluster configuration.
	Cluster types.Config
	// Node is this node's identity.
	Node types.NodeID
	// App is the replicated application; nil means app.Null.
	App app.Application

	// BatchSize, BatchTimeout, CheckpointInterval and WatermarkWindow are
	// passed to every protocol-instance replica.
	BatchSize          int
	BatchTimeout       time.Duration
	CheckpointInterval types.SeqNum
	WatermarkWindow    types.SeqNum

	// OrderingMode selects which instances' orderings reach execution:
	// types.OrderingMasterOnly (the default — all lanes order everything,
	// only the master's order executes) or types.OrderingMultiPrimary (each
	// lane orders a disjoint client partition and a deterministic round-robin
	// merge feeds execution; see lanes.go and docs/ORDERING.md).
	OrderingMode types.OrderingMode

	// ExecWorkers is the worker-shard count of the execution scheduler
	// (internal/exec, docs/EXECUTION.md). Every ordered batch goes through
	// it; requests share a wave only when ExecWorkers >= 2 AND App
	// implements app.ConflictKeyer, otherwise each is a wave of its own,
	// applied in order on the node's goroutine. Replay after a crash is
	// always serial — wave execution is equivalent to the journaled order by
	// construction, so nothing extra is logged.
	ExecWorkers int

	// Monitoring carries the Δ/Λ/Ω monitoring parameters. Instances is
	// filled in from the cluster configuration; PerLane follows OrderingMode.
	Monitoring monitor.Config

	// ReplyCacheSize bounds the per-client reply cache.
	ReplyCacheSize int

	// ClientShards is the lock-stripe count of the client table (0 means
	// defaultClientShards). Sharding lets admission control run concurrently
	// with the apply stage and bounds per-shard metric cardinality.
	ClientShards int
	// MaxClients bounds the resident client-table entries across all shards;
	// beyond it the least-recently-used quiescent client is evicted
	// (docs/CLIENTS.md). 0 means unbounded (the historical behaviour).
	MaxClients int
	// IngressBudget is the per-shard admission budget: client frames beyond
	// this many in flight (admitted at ingress, not yet applied) are shed
	// before the crypto stage. 0 disables admission control.
	IngressBudget int

	// FloodThreshold is the number of invalid messages from one peer within
	// FloodWindow that triggers closing that peer's NIC for NICClosePeriod.
	FloodThreshold int
	// FloodWindow is the flood-detection window.
	FloodWindow time.Duration
	// NICClosePeriod is how long a flooding peer's NIC stays closed.
	NICClosePeriod time.Duration

	// Durable makes the node (and its replicas) attach wal.Records to
	// Outputs for crash-survivable state; the driver must persist an
	// output's records before transmitting its messages (see durability.go).
	Durable bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.App == nil {
		out.App = app.Null{}
	}
	if out.ReplyCacheSize == 0 {
		out.ReplyCacheSize = 256
	}
	if out.FloodThreshold == 0 {
		out.FloodThreshold = 64
	}
	if out.FloodWindow == 0 {
		out.FloodWindow = 100 * time.Millisecond
	}
	if out.NICClosePeriod == 0 {
		out.NICClosePeriod = time.Second
	}
	out.Monitoring.Instances = out.Cluster.Instances()
	out.Monitoring.PerLane = out.OrderingMode == types.OrderingMultiPrimary
	return out
}

// Behavior injects node-level Byzantine behaviour for attack experiments.
// The zero value is a correct node.
type Behavior struct {
	// Silent drops every input without producing output (a crashed node).
	Silent bool
	// DropPropagate makes the node not participate in the PROPAGATE phase
	// (worst-attack-2 step ii).
	DropPropagate bool
	// Instance installs per-instance replica behaviour, e.g. a delaying
	// primary or silent replicas of specific instances.
	Instance map[types.InstanceID]pbft.Behavior
}

// NodeSend is a message to other nodes. A nil To means every other node.
type NodeSend struct {
	To  []types.NodeID
	Msg message.Message
}

// ClientSend is a message to a client.
type ClientSend struct {
	To  types.ClientID
	Msg message.Message
}

// Execution reports a request executed on this node: ordered by the master
// instance in master-only mode, or released by the lane merge in
// multi-primary mode.
type Execution struct {
	Ref    types.RequestRef
	Result []byte
	// Wave indexes Output.ExecWaves: the execution wave that applied this
	// request.
	Wave int
}

// ICEvent reports a completed protocol instance change.
type ICEvent struct {
	CPI     uint64
	NewView types.View
	Reason  monitor.Reason
}

// NICClose instructs the driver to drop traffic from a flooding peer until
// the deadline.
type NICClose struct {
	Peer  types.NodeID
	Until time.Time
}

// Output aggregates the effects of one node input. The entry point that took
// the input (OnVerified, OnIngressFailure, Tick) owns the one Output of the
// step; every handler below it appends to that value in call order, so the
// order within each slice is the order in which the node produced the effect.
type Output struct {
	NodeMsgs        []NodeSend
	ClientMsgs      []ClientSend
	Executions      []Execution
	InstanceChanges []ICEvent
	NICCloses       []NICClose
	// Records are durability records the driver must make crash-safe
	// *before* transmitting NodeMsgs/ClientMsgs (only when Config.Durable).
	Records []wal.Record
	// ExecWaves is the execution plan of this step's Executions: entry w is
	// the number of requests applied in wave w (Execution.Wave indexes it).
	// A node whose scheduler cannot share waves (ExecWorkers < 2, or an app
	// without conflict keys) reports one wave per request. Drivers that model
	// execution cost (internal/sim) charge each wave as one round of
	// ceil(size/workers) applies.
	ExecWaves []int
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

// Node is one RBFT node: the deterministic apply stage of the ingress
// pipeline. Not safe for concurrent use; drivers serialise access. The
// node's Preverifier is the stateless stage in front of it and IS safe for
// concurrent use (see docs/PIPELINE.md).
type Node struct {
	cfg      Config
	behavior Behavior
	keys     *crypto.KeyRing
	pre      *message.Preverifier

	replicas []*pbft.Instance
	mon      *monitor.Monitor

	// sched applies every ordered batch (docs/EXECUTION.md): in waves across
	// worker shards when the app declares conflict keys and ExecWorkers >= 2,
	// in order on this goroutine otherwise. execBatch and execOps are
	// execute's working slices, kept here so a batch allocates neither; they
	// are empty between calls.
	sched     *exec.Scheduler
	execBatch []executing
	execOps   []exec.Op

	// Multi-primary ordering state (nil / zero in master-only mode): the
	// round-robin merge feeding execution, the pending empty-batch filler
	// deadline for a stalled idle lane, and the filler pacing interval.
	merge       *laneMerge
	fillerAt    time.Time
	fillerDelay time.Duration

	view types.View
	cpi  uint64

	// pending is the Propagation and Dispatch modules' state: one record per
	// signed request body from first sight to execution (propagation.go).
	pending map[types.RequestKey]*pendingRequest

	// Execution module state. The sharded client table (clients.go) holds
	// per-client reply caches and executed watermarks; reader is the app's
	// read fast path (nil when the app is not a ReadExecutor).
	table  *clientTable
	reader app.ReadExecutor

	// Instance-change state.
	icVotes     map[uint64]map[types.NodeID]bool
	lastSuspect monitor.Verdict

	// Flood defence.
	floodCounts map[types.NodeID]int
	floodStart  time.Time
	closedUntil map[types.NodeID]time.Time

	// Observability. tr is node-stamped; the message counters index by
	// message.Type and stay nil (no-op) until SetRegistry wires them.
	// spansOn caches obs.WantSpans(tr); with it on, a request's record notes
	// its dispatch time to anchor the per-instance order spans (dispatch →
	// delivery). The record is released when the request executes, so a
	// backup lane delivering after the master has executed skips its order
	// span (its quorum spans still cover the lane).
	tr        obs.Tracer
	spansOn   bool
	metricsOn bool
	msgsIn    [64]*obs.Counter
	msgsOut   [64]*obs.Counter
	clientOut *obs.Counter
	// executedByLane counts executions by the ordering lane the executing
	// order came from (always lane 0 in master-only mode).
	executedByLane []*obs.Counter
	// Parallel-execution counters (nil until SetRegistry): waves applied,
	// requests deferred by a conflict, requests that shared a wave.
	execWaves     *obs.Counter
	execConflicts *obs.Counter
	execParallel  *obs.Counter
}

// New creates an RBFT node. keys must be the node's own key ring.
func New(cfg Config, keys *crypto.KeyRing) *Node {
	c := cfg.withDefaults()
	n := &Node{
		cfg:         c,
		keys:        keys,
		mon:         monitor.New(c.Monitoring),
		pending:     make(map[types.RequestKey]*pendingRequest),
		table:       newClientTable(c.ClientShards, c.MaxClients, c.IngressBudget),
		icVotes:     make(map[uint64]map[types.NodeID]bool),
		floodCounts: make(map[types.NodeID]int),
		closedUntil: make(map[types.NodeID]time.Time),
		tr:          obs.Nop{},
	}
	n.pre = message.NewPreverifier(keys, c.Node, c.Cluster, message.NewVerifyCache(message.DefaultVerifyCacheSize))
	n.sched = exec.New(c.App, c.ExecWorkers)
	if re, ok := c.App.(app.ReadExecutor); ok {
		n.reader = re
	}
	if c.OrderingMode == types.OrderingMultiPrimary {
		n.merge = newLaneMerge(c.Cluster.Instances())
		n.fillerDelay = c.BatchTimeout
		if n.fillerDelay == 0 {
			n.fillerDelay = 5 * time.Millisecond // pbft's BatchTimeout default
		}
	}
	for i := 0; i < c.Cluster.Instances(); i++ {
		pc := pbft.Config{
			Cluster:            c.Cluster,
			Instance:           types.InstanceID(i),
			Node:               c.Node,
			BatchSize:          c.BatchSize,
			BatchTimeout:       c.BatchTimeout,
			CheckpointInterval: c.CheckpointInterval,
			WatermarkWindow:    c.WatermarkWindow,
			// The node's preverify stage checks VIEW-CHANGE signatures
			// (including the copies embedded in NEW-VIEW) before the replica
			// ever sees them; don't pay for them twice.
			SigPreverified: true,
			Durable:        c.Durable,
		}
		n.replicas = append(n.replicas, pbft.New(pc, keys))
	}
	return n
}

// Preverifier returns the stateless ingress verification stage paired with
// this node. Drivers run it on any number of goroutines (or charge it on
// parallel simulated cores) and feed the results to OnVerified /
// OnIngressFailure in arrival order.
func (n *Node) Preverifier() *message.Preverifier { return n.pre }

// SetTracer installs an event sink on the node and propagates it (node-
// stamped) to the replicas and the monitor. Install before driving the
// node; a nil tracer restores the no-op default.
func (n *Node) SetTracer(t obs.Tracer) {
	n.tr = obs.WithNode(t, n.cfg.Node)
	n.spansOn = obs.WantSpans(n.tr)
	for _, r := range n.replicas {
		r.SetTracer(n.tr)
	}
	n.mon.SetTracer(n.tr)
}

// SetRegistry wires the node's metrics: messages in/out by type, replies to
// clients, and the monitor's ordering-latency histogram. Counter pointers
// are resolved once here so increments on the hot path are a nil check and
// an atomic add.
func (n *Node) SetRegistry(reg *obs.Registry) {
	if reg == nil {
		return
	}
	n.metricsOn = true
	for _, t := range countedMsgTypes {
		n.msgsIn[t] = reg.Counter(obs.LabeledName("rbft_messages_in_total", "type", t.String()))
		n.msgsOut[t] = reg.Counter(obs.LabeledName("rbft_messages_out_total", "type", t.String()))
	}
	n.clientOut = reg.Counter("rbft_client_messages_out_total")
	n.executedByLane = make([]*obs.Counter, len(n.replicas))
	for i := range n.replicas {
		n.executedByLane[i] = reg.Counter(obs.LabeledName("rbft_executed_total", "lane", fmt.Sprintf("%d", i)))
	}
	n.execWaves = reg.Counter("rbft_exec_waves_total")
	n.execConflicts = reg.Counter("rbft_exec_conflicts_total")
	n.execParallel = reg.Counter("rbft_exec_parallel_total")
	for i := range n.table.shards {
		sh := &n.table.shards[i]
		sh.size = reg.Gauge(obs.LabeledName("rbft_client_table_size", "shard", fmt.Sprintf("%d", i)))
		sh.evictions = reg.Counter(obs.LabeledName("rbft_client_evictions_total", "shard", fmt.Sprintf("%d", i)))
	}
	n.table.admitted = reg.Counter("rbft_ingress_admitted_total")
	n.table.rejected = reg.Counter("rbft_ingress_rejected_total")
	n.pre.Cache().SetCounters(
		reg.Counter("rbft_sigcache_hits_total"),
		reg.Counter("rbft_sigcache_misses_total"),
	)
	n.mon.SetRegistry(reg)
}

// countedMsgTypes enumerates every wire message type for the per-type
// counters. All values fit the msgsIn/msgsOut arrays (max is 33).
var countedMsgTypes = []message.Type{
	message.TypeRequest, message.TypeReadRequest, message.TypePropagate, message.TypePrePrepare,
	message.TypePrepare, message.TypeCommit, message.TypeReply,
	message.TypeInstanceChange, message.TypeViewChange, message.TypeNewView,
	message.TypeCheckpoint, message.TypeInvalid, message.TypeFetch,
	message.TypeFetchResp,
}

// observeIO counts one handled input message and the node's emissions.
// Multicasts (NodeSend with nil To) count once: the counter tracks protocol
// emissions, not per-link transmissions (the transport counts bytes).
func (n *Node) observeIO(in message.Message, out *Output) {
	if !n.metricsOn {
		return
	}
	if in != nil {
		if t := in.MsgType(); int(t) < len(n.msgsIn) {
			n.msgsIn[t].Inc()
		}
	}
	for _, nm := range out.NodeMsgs {
		if t := nm.Msg.MsgType(); int(t) < len(n.msgsOut) {
			n.msgsOut[t].Inc()
		}
	}
	if len(out.ClientMsgs) > 0 {
		n.clientOut.Add(uint64(len(out.ClientMsgs)))
	}
}

// SetBehavior installs Byzantine behaviour (attack experiments only).
func (n *Node) SetBehavior(b Behavior) {
	n.behavior = b
	// Every replica gets its entry of b.Instance or, absent one, the zero
	// (correct) behaviour: installing Behavior{} heals a faulty node. Instance
	// order, not map order, so installation is deterministic.
	for i := range n.replicas {
		n.replicas[i].SetBehavior(b.Instance[types.InstanceID(i)])
	}
}

// ID returns the node's identity.
func (n *Node) ID() types.NodeID { return n.cfg.Node }

// View returns the shared view number.
func (n *Node) View() types.View { return n.view }

// CPI returns the instance-change counter.
func (n *Node) CPI() uint64 { return n.cpi }

// Monitor exposes the node's monitoring module; harnesses sample
// per-instance throughput from it.
func (n *Node) Monitor() *monitor.Monitor { return n.mon }

// Replica returns the local replica of an instance (tests and harnesses).
func (n *Node) Replica(i types.InstanceID) *pbft.Instance { return n.replicas[i] }

// MasterPrimary returns the node currently hosting the master instance's
// primary.
func (n *Node) MasterPrimary() types.NodeID {
	return n.cfg.Cluster.PrimaryOf(n.view, types.MasterInstance)
}

// NextWake returns the earliest pending timer across the replicas and the
// monitor, or zero if none. A silent node fires no timers (tick), so it
// reports none: a deadline it never serves would keep its driver spinning.
func (n *Node) NextWake() time.Time {
	var wake time.Time
	if n.behavior.Silent {
		return wake
	}
	consider := func(t time.Time) {
		if t.IsZero() {
			return
		}
		if wake.IsZero() || t.Before(wake) {
			wake = t
		}
	}
	for _, r := range n.replicas {
		consider(r.NextWake())
	}
	consider(n.mon.NextWake())
	consider(n.fillerAt)
	return wake
}

// Tick fires due timers: replica batch timers and the monitoring period.
func (n *Node) Tick(now time.Time) Output {
	var out Output
	if n.behavior.Silent {
		return out
	}
	for i, r := range n.replicas {
		w := r.NextWake()
		if !w.IsZero() && !now.Before(w) {
			n.absorb(&out, types.InstanceID(i), r.Tick(now), now)
		}
	}
	if n.multiPrimary() {
		n.tickFiller(&out, now)
	}
	w := n.mon.NextWake()
	if !w.IsZero() && !now.Before(w) {
		verdict := n.mon.Tick(now)
		n.lastSuspect = verdict
		if verdict.Suspicious {
			n.voteInstanceChange(&out, verdict.Reason, now)
		}
	}
	n.observeIO(nil, &out)
	return out
}

// OnVerified is the apply stage: it consumes a preverified message and runs
// the deterministic protocol logic. No crypto happens past this point — the
// Verified value's authentication material is trusted unconditionally.
func (n *Node) OnVerified(v *message.Verified, now time.Time) Output {
	var out Output
	switch {
	case n.behavior.Silent:
	case !v.FromClient:
		n.applyNodeMessage(&out, v, now)
	default:
		req, ok := v.Msg.(*message.Request)
		if !ok {
			return out // forged Verified; preverify never builds this
		}
		n.applyClientRequest(&out, req, v.Digest, now)
	}
	n.observeIO(v.Msg, &out)
	return out
}

// IngressFailure describes a frame the preverify stage rejected. Msg is the
// decoded message when decoding succeeded (metrics only; may be nil).
type IngressFailure struct {
	FromClient bool
	Client     types.ClientID
	From       types.NodeID
	Kind       message.FailKind
	Msg        message.Message
}

// OnIngressFailure applies the node-state reaction to a preverification
// failure: flood accounting and NIC closures for node traffic, blacklisting
// for client signature failures. Keeping these decisions in the apply stage
// (rather than in the concurrent verifiers) keeps flood state deterministic.
func (n *Node) OnIngressFailure(f IngressFailure, now time.Time) Output {
	var out Output
	if n.behavior.Silent {
		return out
	}
	if f.FromClient {
		// An invalid signature blacklists the client: it proves the client
		// is faulty (MACs passed, so nobody else forged the frame). Bad MACs
		// and malformed frames are dropped without reaction — they carry no
		// proof of origin.
		if f.Kind == message.FailBadSig {
			n.client(f.Client, now).blacklisted = true
		}
	} else {
		if n.nicClosed(f.From, now) {
			return out
		}
		n.countInvalid(&out, f.From, now)
	}
	n.observeIO(f.Msg, &out)
	return out
}

// applyClientRequest processes a preverified client REQUEST whose OpDigest is
// d.
func (n *Node) applyClientRequest(out *Output, req *message.Request, d types.Digest, now time.Time) {
	cs := n.client(req.Client, now)
	if cs.blacklisted {
		return
	}
	if n.tr.Enabled() {
		n.tr.Trace(obs.Event{
			At: now, Type: obs.EvRequestReceived, Client: req.Client, Req: req.ID,
		})
	}
	// Speculative read-only fast path: answer from local state, no ordering,
	// no reply-cache or propagation bookkeeping. The client accepts only on
	// a read quorum (2f+1) of matching replies and re-issues through normal
	// ordering otherwise, so a request the app cannot serve as a read (or an
	// app with no read path at all) is simply dropped here.
	if req.ReadOnly {
		if n.reader == nil {
			return
		}
		if result, ok := n.reader.ExecuteRead(req.Op); ok {
			out.ClientMsgs = append(out.ClientMsgs, n.replyTo(req.Client, req.ID, result))
		}
		return
	}
	// Retransmission of an executed request: resend the cached reply. The
	// watermark is tested first — the cache is a linear scan, and a new
	// request must not pay for it. Executed but the cached reply has been
	// evicted: drop. Re-propagating would re-execute on nodes that no longer
	// remember the reply, so the executed watermark wins over helpfulness
	// (the client library re-issues under a fresh ID if it truly never saw
	// the reply).
	if cs.isExecuted(req.ID) {
		if result, ok := n.cachedReply(cs, req.ID); ok {
			out.ClientMsgs = append(out.ClientMsgs, n.replyTo(req.Client, req.ID, result))
		}
		return
	}
	ref := types.RequestRef{Client: req.Client, ID: req.ID, Digest: d}
	if r := n.storeBody(cs, ref, req); r != nil {
		n.propagate(out, r, now)
	}
}

// applyNodeMessage processes a preverified message from another node:
// PROPAGATE, the per-instance protocol messages, and INSTANCE-CHANGE.
func (n *Node) applyNodeMessage(out *Output, v *message.Verified, now time.Time) {
	if n.nicClosed(v.From, now) {
		return
	}
	switch m := v.Msg.(type) {
	case *message.Propagate:
		n.applyPropagate(out, m, v.Digest, v.From, now)
	case *message.InstanceChange:
		n.onInstanceChange(out, m, now)
	default:
		n.applyInstanceMessage(out, v.Msg, v.From, now)
	}
}

// nicClosed reports whether traffic from a peer is currently dropped due to
// a flood closure, expiring the closure once its deadline passes.
func (n *Node) nicClosed(from types.NodeID, now time.Time) bool {
	until, closed := n.closedUntil[from]
	if !closed {
		return false
	}
	if now.Before(until) {
		return true
	}
	delete(n.closedUntil, from)
	return false
}

// countInvalid records an invalid message from a peer and closes its NIC if
// it exceeds the flood threshold within the window.
func (n *Node) countInvalid(out *Output, from types.NodeID, now time.Time) {
	if now.Sub(n.floodStart) > n.cfg.FloodWindow {
		n.floodStart = now
		for k := range n.floodCounts {
			delete(n.floodCounts, k)
		}
	}
	n.floodCounts[from]++
	if n.floodCounts[from] >= n.cfg.FloodThreshold {
		until := now.Add(n.cfg.NICClosePeriod)
		n.closedUntil[from] = until
		out.NICCloses = append(out.NICCloses, NICClose{Peer: from, Until: until})
		n.floodCounts[from] = 0
		if n.tr.Enabled() {
			n.tr.Trace(obs.Event{At: now, Type: obs.EvNICClose, Peer: from})
		}
	}
}

// AdmitIngress is the admission-control gate drivers call for every client
// frame BEFORE spending crypto on it: false means the client's shard has
// exhausted its pending budget and the frame should be shed (reject-with-
// busy). Unlike every other Node method this one is safe for concurrent use
// with the apply stage — it touches only shard-local admission state — which
// is what lets the runtime's reader shed floods ahead of the verifier pool.
func (n *Node) AdmitIngress(c types.ClientID) bool { return n.table.admit(c) }

// ReleaseIngress returns an AdmitIngress slot once the admitted frame has
// left the apply stage. Concurrency-safe like AdmitIngress.
func (n *Node) ReleaseIngress(c types.ClientID) { n.table.release(c) }

// pendingRequest is everything the node holds for one signed request body
// between first sight and execution: the body, who has PROPAGATEd it, and
// whether it went to the replicas. Records live in Node.pending under the
// request's (client, id) key. An equivocating client may sign several bodies
// under one id, and execution must pick the same one on every node — the
// first one ordered — so each body (told apart by its digest) gets its own
// record, chained through sibling. storeBody is the only place a record is
// created, release the only place one goes away.
type pendingRequest struct {
	ref types.RequestRef
	// body is the verified request minus its authenticator. Op and Sig alias
	// the received frame (message.Decode), so the record keeps that frame
	// alive until the request executes.
	body message.Request
	// senders[i] is set once node i's PROPAGATE (or, for this node, the
	// decision to send one) is in; nsenders counts the set entries.
	senders  []bool
	nsenders int
	// dispatched is set once the request went to the local replicas;
	// dispatchedAt is when, noted only with spans on.
	dispatched   bool
	dispatchedAt time.Time
	sibling      *pendingRequest
}

// addSender notes a PROPAGATE from id and reports whether it is news.
func (r *pendingRequest) addSender(id types.NodeID) bool {
	if r.senders[id] {
		return false
	}
	r.senders[id] = true
	r.nsenders++
	return true
}

// maxPendingBodiesPerClient bounds the request bodies a single (possibly
// equivocating) client can keep resident per node.
const maxPendingBodiesPerClient = 4096

// storeBody returns the record of the verified request body ref, creating it
// on first sight, or nil when the client already pins its full allowance of
// bodies. This is the node's single retention point for decoded request
// bytes, and with release one of the two places pendingBodies moves.
func (n *Node) storeBody(cs *clientState, ref types.RequestRef, req *message.Request) *pendingRequest {
	key := ref.Key()
	head := n.pending[key]
	for r := head; r != nil; r = r.sibling {
		if r.ref.Digest == ref.Digest {
			return r
		}
	}
	if cs.pendingBodies >= maxPendingBodiesPerClient {
		return nil
	}
	cs.pendingBodies++
	r := &pendingRequest{
		ref: ref, body: *req, sibling: head,
		senders: make([]bool, n.cfg.Cluster.N),
	}
	r.body.Auth = nil
	n.pending[key] = r
	return r
}

// lookup returns ref's record, or nil if the node holds none (never stored,
// or released by the execution of ref's key).
func (n *Node) lookup(ref types.RequestRef) *pendingRequest {
	r := n.pending[ref.Key()]
	for r != nil && r.ref.Digest != ref.Digest {
		r = r.sibling
	}
	return r
}

// release drops every record under key — the executed body and any
// equivocated siblings: the request is decided on this node.
func (n *Node) release(cs *clientState, key types.RequestKey) {
	for r := n.pending[key]; r != nil; r = r.sibling {
		cs.pendingBodies--
	}
	delete(n.pending, key)
}

// applyPropagate processes a preverified PROPAGATE (MAC and the embedded
// request's client signature both already checked) whose request has
// OpDigest d.
func (n *Node) applyPropagate(out *Output, p *message.Propagate, d types.Digest, from types.NodeID, now time.Time) {
	cs := n.client(p.Req.Client, now)
	if cs.blacklisted {
		return
	}
	// The request already executed here: it is decided, so further
	// PROPAGATEs for its key must not pin fresh bodies or re-enter dispatch.
	if cs.isExecuted(p.Req.ID) {
		return
	}
	ref := types.RequestRef{Client: p.Req.Client, ID: p.Req.ID, Digest: d}
	if r := n.storeBody(cs, ref, &p.Req); r != nil {
		r.addSender(from)
		n.propagate(out, r, now)
	}
}

// propagate runs the Propagation module for a stored request: send our own
// PROPAGATE the first time we learn of it, then dispatch once f+1 copies are
// in. The MAC body comes from the ref's digest — the preverify stage's one
// pass over the operation is the last.
func (n *Node) propagate(out *Output, r *pendingRequest, now time.Time) {
	if r.addSender(n.cfg.Node) && !n.behavior.DropPropagate {
		p := &message.Propagate{Req: r.body, Node: n.cfg.Node}
		var buf [message.MaxBodySize]byte
		p.Auth = n.keys.AuthenticatorForNodes(n.cfg.Cluster.N, p.AppendBody(buf[:0], r.ref.Digest))
		out.NodeMsgs = append(out.NodeMsgs, NodeSend{Msg: p})
	}
	n.maybeDispatch(out, r, now)
}

// maybeDispatch runs the Dispatch module once f+1 PROPAGATE copies
// (including our own) have been collected: in master-only mode the request
// goes to all f+1 local replicas for redundant ordering; in multi-primary
// mode only to the lane owning the client's partition.
func (n *Node) maybeDispatch(out *Output, r *pendingRequest, now time.Time) {
	if r.dispatched || r.nsenders < n.cfg.Cluster.WeakQuorum() {
		return
	}
	r.dispatched = true
	if n.spansOn {
		r.dispatchedAt = now
	}
	// A replica's output can deliver, execute and thereby release r, so
	// nothing below reads the record.
	ref := r.ref
	first, last := 0, len(n.replicas)-1
	if n.multiPrimary() {
		lane := types.PartitionOf(ref.Client, len(n.replicas))
		first, last = int(lane), int(lane)
		n.mon.RequestDispatchedTo(lane, ref, now)
	} else {
		n.mon.RequestDispatched(ref, now)
	}
	if n.tr.Enabled() {
		n.tr.Trace(obs.Event{
			At: now, Type: obs.EvRequestDispatched, Client: ref.Client, Req: ref.ID,
		})
	}
	for i := first; i <= last; i++ {
		n.absorb(out, types.InstanceID(i), n.replicas[i].AddRequest(ref, now), now)
	}
}

// applyInstanceMessage routes a preverified protocol message to the right
// local replica. Sender attribution, instance bounds and MACs/signatures
// were all checked by the preverify stage; the bounds recheck below only
// guards against a forged Verified value. A replica-level rejection
// (semantically invalid message) still feeds flood accounting.
func (n *Node) applyInstanceMessage(out *Output, msg message.Message, from types.NodeID, now time.Time) {
	inst, _, ok := message.InstanceAndSender(msg)
	if !ok || int(inst) >= len(n.replicas) || inst < 0 {
		n.countInvalid(out, from, now)
		return
	}
	res, err := n.replicas[inst].OnMessage(msg, now)
	if err != nil {
		n.countInvalid(out, from, now)
		return
	}
	n.absorb(out, inst, res, now)
}

// absorb converts a replica's output into node output: forwards its
// messages, feeds deliveries to the monitor, and hands the Execution module
// the batches each delivery releases, in execution order — in master-only
// mode the master instance's batch itself (the backup lanes order for the
// monitor alone), in multi-primary mode whatever the round-robin lane merge
// lets go, each journalled so a restart resumes the merge cursors.
func (n *Node) absorb(out *Output, inst types.InstanceID, res pbft.Output, now time.Time) {
	out.Records = append(out.Records, res.Records...)
	for _, ob := range res.Msgs {
		out.NodeMsgs = append(out.NodeMsgs, NodeSend{To: ob.To, Msg: ob.Msg})
	}
	for _, batch := range res.Delivered {
		if n.tr.Enabled() {
			n.tr.Trace(obs.Event{
				At: now, Type: obs.EvOrdered, Instance: inst,
				Seq: batch.Seq, View: batch.View, Count: len(batch.Refs),
			})
		}
		for _, ref := range batch.Refs {
			if n.spansOn {
				if r := n.lookup(ref); r != nil && !r.dispatchedAt.IsZero() {
					n.tr.Trace(obs.Event{
						At: now, Type: obs.EvSpan, Stage: obs.StageOrder,
						Instance: inst, Seq: batch.Seq, View: batch.View,
						Client: ref.Client, Req: ref.ID,
						Trace: obs.TraceID(ref.Digest), Dur: now.Sub(r.dispatchedAt),
					})
				}
			}
			verdict := n.mon.RequestOrdered(inst, ref, now)
			if verdict.Suspicious {
				n.lastSuspect = verdict
				n.voteInstanceChange(out, verdict.Reason, now)
			}
		}
		var own [1]mergedBatch
		released := own[:0]
		if n.multiPrimary() {
			released = n.merge.push(inst, batch.Seq, batch.Refs)
		} else if inst == types.MasterInstance {
			released = append(released, mergedBatch{lane: inst, seq: batch.Seq, refs: batch.Refs})
		}
		for _, mb := range released {
			if n.multiPrimary() {
				n.journal(out, wal.Record{Kind: wal.KindMerged, Instance: mb.lane, Seq: mb.seq})
			}
			n.execute(out, mb.lane, mb.refs, now)
		}
	}
	if n.multiPrimary() {
		n.updateFiller(now)
	}
}

// executing is one request of the batch execute is working on.
type executing struct {
	req *pendingRequest
	cs  *clientState
}

// execute runs the Execution module for one batch of requests in the agreed
// execution order — the master's order in master-only mode, the lane merge's
// order in multi-primary mode; lane records which ordering lane released the
// batch. The executed set is keyed by (client, id): if an equivocating client
// signed several bodies under one id, only the first ordered one executes —
// and since the execution order is identical everywhere, every correct node
// picks the same body.
//
// Everything that touches node state — skip-if-executed, executed-set
// marking, journaling, reply caching, the record's release — happens in
// sequence order on this (single-threaded) node; only the App.Execute calls
// go through the scheduler, which may fan them out across worker shards in
// waves of non-conflicting requests, so goroutine interleaving can never
// reach the node's state, trace or WAL. restoreExecution is the replay-side
// counterpart.
func (n *Node) execute(out *Output, lane types.InstanceID, refs []types.RequestRef, now time.Time) {
	batch, ops := n.execBatch[:0], n.execOps[:0]
	for _, ref := range refs {
		cs := n.client(ref.Client, now)
		if cs.isExecuted(ref.ID) {
			continue
		}
		r := n.lookup(ref)
		if r == nil {
			// Cannot happen for requests dispatched by this node (dispatch
			// requires the body, stored under the digest it was verified
			// against); guards against divergent state.
			continue
		}
		cs.markExecuted(ref.ID)
		n.journal(out, wal.Record{
			Kind: wal.KindExecuted, Client: ref.Client, Req: ref.ID,
			Digest: ref.Digest, Op: r.body.Op, Instance: lane,
		})
		if n.metricsOn && n.executedByLane != nil {
			n.executedByLane[lane].Inc()
		}
		// cs stays valid to the end of the batch: r pins it in the table
		// (a client with pending bodies is never evicted).
		batch = append(batch, executing{req: r, cs: cs})
		ops = append(ops, exec.Op{Client: ref.Client, ID: ref.ID, Body: r.body.Op})
	}
	if len(batch) == 0 {
		return
	}
	res := n.sched.ExecuteBatch(ops)
	base := len(out.ExecWaves)
	out.ExecWaves = append(out.ExecWaves, res.Waves...)
	if n.metricsOn && n.execWaves != nil {
		n.execWaves.Add(uint64(len(res.Waves)))
		n.execConflicts.Add(uint64(res.Conflicts))
		n.execParallel.Add(uint64(res.Parallel))
	}
	out.Executions = slices.Grow(out.Executions, len(batch))
	out.ClientMsgs = slices.Grow(out.ClientMsgs, len(batch))
	for i, e := range batch {
		ref, result := e.req.ref, res.Results[i]
		if n.tr.Enabled() {
			n.tr.Trace(obs.Event{
				At: now, Type: obs.EvExecuted, Client: ref.Client, Req: ref.ID,
			})
		}
		e.cs.cacheReply(ref.ID, result, n.cfg.ReplyCacheSize)
		out.Executions = append(out.Executions, Execution{Ref: ref, Result: result, Wave: base + res.Wave[i]})
		out.ClientMsgs = append(out.ClientMsgs, n.replyTo(ref.Client, ref.ID, result))
		n.release(e.cs, ref.Key())
	}
	// Hand the working slices back empty: they must not pin the executed
	// requests' frames until the next batch overwrites them.
	clear(batch)
	clear(ops)
	n.execBatch, n.execOps = batch[:0], ops[:0]
}

// replyTo builds an authenticated REPLY.
func (n *Node) replyTo(client types.ClientID, id types.RequestID, result []byte) ClientSend {
	rep := &message.Reply{Client: client, ID: id, Result: result, Node: n.cfg.Node}
	rep.MAC = n.keys.MACForClient(client, rep.Body())
	return ClientSend{To: client, Msg: rep}
}

// cachedReply looks up a cached reply for a retransmitted request.
func (n *Node) cachedReply(cs *clientState, id types.RequestID) ([]byte, bool) {
	for i := len(cs.replies) - 1; i >= 0; i-- {
		if cs.replies[i].id == id {
			return cs.replies[i].result, true
		}
	}
	return nil, false
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
