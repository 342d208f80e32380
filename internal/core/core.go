// Package core implements the RBFT node: the Verification, Propagation,
// Dispatch & Monitoring and Execution modules from the paper, the f+1 local
// protocol-instance replicas, and the protocol instance change mechanism.
//
// Like the pbft package, a Node is a pure state machine driven by a runtime:
// inputs are preverified messages, preverification failures and timer ticks;
// outputs are messages to send, executed requests, replies, instance-change
// events and NIC closures. The discrete-event simulator and the real-time
// TCP/UDP runtime both drive the same Node code, the one way there is: run
// Preverifier() on the frame's bytes, hand the result to OnVerified or
// OnRejected in arrival order, and call Tick when NextWake is due
// (docs/PIPELINE.md).
//
// The files follow the paper's modules: ingress.go (Verification's apply half
// and the flood defence), propagation.go, dispatch.go (Dispatch & Monitoring),
// execution.go, instancechange.go; lanes.go is the multi-primary merge,
// clients.go the client table, durability.go the WAL hooks.
package core

import (
	"cmp"
	"fmt"
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

	// MaxClients bounds the resident client-table entries; beyond it the
	// least-recently-used quiescent client is evicted (docs/CLIENTS.md). 0
	// means unbounded (the historical behaviour).
	MaxClients int

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

// NodeSend is a message to other nodes; a nil To means every other node. It
// is the replicas' own outbound type, so their messages enter Output.NodeMsgs
// without being copied field by field.
type NodeSend = pbft.Outbound

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
// the input (OnVerified, OnRejected, Tick) owns the one Output of the
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
	// executeBatch's working slices, kept here so a batch allocates neither;
	// they are empty between calls.
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

	// pending is the node's one request store: a record per request ref,
	// holding the Propagation and Dispatch modules' state and each replica's
	// (propagation.go), drawn from free; stored and answers are working
	// slices, empty between calls.
	pending map[types.RequestKey]*pendingRequest
	free    []*pendingRequest
	stored  []*pendingRequest
	answers []answer

	// Execution module state. The client table (clients.go) holds
	// per-client reply caches and executed watermarks; reader is the app's
	// read fast path (nil when the app is not a ReadExecutor).
	table  *clientTable
	reader app.ReadExecutor

	// Instance-change state. icVotes holds, indexed by NodeID, the cpi of
	// the node's latest INSTANCE-CHANGE plus one; zero means no vote.
	icVotes     []uint64
	lastSuspect monitor.Verdict

	// Flood defence, indexed by NodeID: invalid messages counted since
	// floodStart, and the deadline of a closed NIC (zero when never closed).
	floodCounts []int
	floodStart  time.Time
	closedUntil []time.Time

	// Observability. tr is node-stamped; the message counters index by
	// message.Type and stay nil (no-op) until SetRegistry wires them.
	// spansOn caches obs.WantSpans(tr): emit the per-instance order spans
	// (dispatch → delivery) of requests the node still holds.
	tr        obs.Tracer
	spansOn   bool
	metricsOn bool
	msgsIn    [64]*obs.Counter
	msgsOut   [64]*obs.Counter
	clientOut *obs.Counter
	// rejected counts the frames OnRejected reacted to, by message.FailKind.
	rejected [message.FailBadSig + 1]*obs.Counter
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
		table:       newClientTable(c.MaxClients),
		icVotes:     make([]uint64, c.Cluster.N),
		floodCounts: make([]int, c.Cluster.N),
		closedUntil: make([]time.Time, c.Cluster.N),
		tr:          obs.Nop{},
	}
	n.pre = message.NewPreverifier(keys, c.Node, c.Cluster, message.NewVerifyCache())
	n.sched = exec.New(c.App, c.ExecWorkers)
	n.reader, _ = c.App.(app.ReadExecutor)
	if c.OrderingMode == types.OrderingMultiPrimary {
		n.merge = newLaneMerge(c.Cluster.Instances())
		n.fillerDelay = cmp.Or(c.BatchTimeout, types.DefaultBatchTimeout)
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
			Durable:            c.Durable,
			Store:              (*replicaStore)(n),
		}
		n.replicas = append(n.replicas, pbft.New(pc, keys))
	}
	return n
}

// Preverifier returns the stateless ingress verification stage paired with
// this node. Drivers run it on any number of goroutines (or charge it on
// parallel simulated cores) and feed the results to OnVerified / OnRejected in
// arrival order.
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
	// One in and one out counter per named wire type; every tag fits the
	// arrays.
	for t := range message.Type(len(n.msgsIn)) {
		if t.String() == "UNKNOWN" {
			continue
		}
		n.msgsIn[t] = reg.Counter(obs.LabeledName("rbft_messages_in_total", "type", t.String()))
		n.msgsOut[t] = reg.Counter(obs.LabeledName("rbft_messages_out_total", "type", t.String()))
	}
	n.clientOut = reg.Counter("rbft_client_messages_out_total")
	for k := message.FailMalformed; k <= message.FailBadSig; k++ {
		n.rejected[k] = reg.Counter(obs.LabeledName("rbft_frames_rejected_total", "kind", k.String()))
	}
	n.executedByLane = make([]*obs.Counter, len(n.replicas))
	for i := range n.replicas {
		n.executedByLane[i] = reg.Counter(obs.LabeledName("rbft_executed_total", "lane", fmt.Sprintf("%d", i)))
	}
	n.execWaves = reg.Counter("rbft_exec_waves_total")
	n.execConflicts = reg.Counter("rbft_exec_conflicts_total")
	n.execParallel = reg.Counter("rbft_exec_parallel_total")
	n.table.size = reg.Gauge("rbft_client_table_size")
	n.table.evictions = reg.Counter("rbft_client_evictions_total")
	n.pre.Cache().SetCounters(
		reg.Counter("rbft_sigcache_hits_total"),
		reg.Counter("rbft_sigcache_misses_total"),
	)
	n.mon.SetRegistry(reg)
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
	n.clientOut.Add(uint64(len(out.ClientMsgs)))
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
		if !t.IsZero() && (wake.IsZero() || t.Before(wake)) {
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
