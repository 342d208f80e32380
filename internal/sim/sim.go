package sim

import (
	"container/heap"
	"math/rand"
	"time"

	"rbft/internal/app"
	"rbft/internal/core"
	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/monitor"
	"rbft/internal/obs"
	"rbft/internal/types"
)

// event is one scheduled simulator action.
type event struct {
	at  time.Time
	seq uint64 // FIFO tiebreak for identical timestamps
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Config parameterises one simulation run.
type Config struct {
	// F is the number of tolerated faults (N = 3f+1 nodes).
	F int
	// Cost is the CPU/network cost model.
	Cost CostModel
	// UDP disables the TCP per-message latency overhead.
	UDP bool
	// Seed feeds the deterministic jitter source.
	Seed int64
	// VerifyCores selects the ingress charging model. 0 (the default) is the
	// serial model: each message's full inCost is charged on the CPU queue
	// that processes it. k >= 1 models the two-stage pipeline of the live
	// runtime: preverifyCost is charged on k parallel verify cores (with
	// queueing) and only applyCost on the node-module/instance cores, with
	// an order-preserving handoff between the stages. Either model is
	// deterministic for a fixed seed.
	VerifyCores int
	// EgressCoalesce models the frame-coalescing egress of the live runtime
	// (docs/EGRESS.md). 0 (the default) is the per-message model: every
	// node-to-node message is its own physical frame, paying
	// Cost.PacketOverheadBytes each. k >= 1 models the coalescing batch
	// writer: messages emitted while their peer link is still transmitting
	// park on the link and leave as one coalesced frame of up to k payloads,
	// paying the packet overhead once per flush — self-regulating, exactly
	// like the runtime's greedy flush policy. Either model is deterministic
	// for a fixed seed.
	EgressCoalesce int
	// ExecWorkers is each node's execution worker count (core.Config.
	// ExecWorkers) and the k of the execution charge: every wave of n
	// requests in an output's plan costs ceil(n/max(k,1)) execution quanta —
	// the span of n requests spread over k worker cores (internal/exec,
	// docs/EXECUTION.md). The plan is computed by the real scheduler inside
	// core.Node, so the model charges exactly the parallelism the
	// application's conflict keys allow: with k < 2, or an application that
	// declares no keys, every request is a wave of its own and costs one
	// quantum. Deterministic for a fixed seed.
	ExecWorkers int

	// BatchSize and BatchTimeout configure the ordering instances.
	BatchSize    int
	BatchTimeout time.Duration
	// OrderingMode selects master-only (default) or multi-primary ordering
	// (core.Config.OrderingMode): in multi-primary mode each instance orders
	// a disjoint client partition and a deterministic merge feeds execution.
	OrderingMode types.OrderingMode
	// Monitoring carries Δ/Λ/Ω; Instances is filled in automatically.
	Monitoring monitor.Config
	// CheckpointInterval and WatermarkWindow tune log GC.
	CheckpointInterval types.SeqNum
	WatermarkWindow    types.SeqNum

	// Durability selects the modelled WAL mode (default none). With
	// durability on, every node logs crash-survivable state and an output's
	// messages are released only after its records' modelled flush
	// completes (log before send, exactly as internal/runtime enforces).
	Durability DurabilityMode
	// Crashes schedules deterministic node crash/restart events. A crashed
	// node loses every non-durable structure — CPU queues, un-fsynced WAL
	// batches, in-flight verification — and recovers from its durable log
	// image when it restarts.
	Crashes []Crash

	// Workload drives the clients.
	Workload Workload
	// SpeculativeReads routes the KV workload's GET operations through the
	// client's speculative read-only fast path (docs/CLIENTS.md): reads skip
	// ordering, nodes answer them from local state at apply time, and the
	// client accepts on a read quorum (2f+1) of matching replies, falling
	// back to normal ordering on refutation or timeout. Off (the default),
	// every GET is ordered.
	SpeculativeReads bool
	// MaxClients bounds each node's client table (core.Config.MaxClients):
	// beyond it the least-recently-active quiescent clients are evicted, and
	// an evicted client that retransmits is re-verified from scratch. 0 (the
	// default) keeps the table unbounded, as before.
	MaxClients int

	// NodeBehavior installs Byzantine node behaviour for attacks.
	NodeBehavior map[types.NodeID]core.Behavior
	// Floods are message-flooding attacks.
	Floods []Flood
	// CorruptClientAuthFor lists nodes for which all clients corrupt their
	// request MAC entry (worst-attack-1 step i).
	CorruptClientAuthFor []types.NodeID
	// Script schedules arbitrary mid-run actions (e.g. changing an
	// attacker's behaviour).
	Script []Action

	// Trace is an optional additional event sink (e.g. an obs.JSONLWriter)
	// receiving the full protocol event trace alongside the run's metrics.
	// Events carry virtual-time timestamps, so same-seed runs produce
	// byte-identical JSONL traces.
	Trace obs.Tracer

	// Warmup excludes the initial interval from summary metrics.
	Warmup time.Duration
	// TrackClientLatency records a per-request latency series per client
	// (Result.ClientSeries).
	TrackClientLatency bool
	// MonitorSampleEvery samples every node's per-instance monitor
	// throughput at this interval (figures 9 and 11). Zero disables.
	MonitorSampleEvery time.Duration
}

// Action is a scheduled scriptable step.
type Action struct {
	At time.Time
	Do func(s *Sim)
}

// cpuTask is one unit of work waiting on a node CPU queue: a timer tick (msg
// nil), or an arrived frame as the node's preverifier judged it — v its
// certificate, or rej the rejection. msg is what the cost model charges for
// the frame: the verified message, or whatever a rejected frame decodes to;
// sigChecked whether judging it cost the node a client signature check (its
// VerifyCache counted a miss).
type cpuTask struct {
	msg        message.Message
	fromClient bool
	v          *message.Verified
	rej        error
	sigChecked bool

	// arrivedAt is when the frame reached the node (ingress-span anchor).
	arrivedAt time.Time
}

// cpuQueue is a single-server FIFO CPU queue (one core).
type cpuQueue struct {
	pending []cpuTask
	running bool
}

// link models one unidirectional network link (dedicated NICs per pair).
// With EgressCoalesce > 0, messages emitted while the link is transmitting
// accumulate in pending and flush as one coalesced frame when it frees;
// pending is the modelled peer egress queue, held on the sending host, so a
// crash loses it (unlike frames already on the wire). The queue is
// unbounded: the simulator's emit step is instantaneous, so the queue only
// ever holds what one busy period accumulates — the live runtime bounds its
// queues to protect the apply loop, which the sim cannot stall by design.
type link struct {
	busyUntil time.Time
	// pending holds parked payloads awaiting a coalesced flush.
	pending []pendingFrame
	// flushArmed marks that a flush event is scheduled for busyUntil.
	flushArmed bool
}

// pendingFrame is one encoded protocol payload parked on a busy link, with
// its modelled wire size.
type pendingFrame struct {
	frame []byte
	size  int
}

// simNode wraps a core.Node with its CPU queues and NIC links.
type simNode struct {
	node *core.Node
	id   types.NodeID
	// peers is every other node: the targets of a broadcast.
	peers []types.NodeID
	// queues: index 0 = node modules (verification, propagation, dispatch,
	// execution); 1..f+1 = one core per protocol-instance replica.
	queues []cpuQueue
	// peerTx[j] is the outbound link to node j; clientTx/clientRx are the
	// client-facing NIC directions.
	peerTx   []link
	clientTx link
	clientRx link
	// closed[peer] drops traffic from that peer until the deadline (NIC
	// closure on flood detection).
	closed map[types.NodeID]time.Time
	// sigChecks counts the frames charged a client signature check.
	sigChecks int
	// verify models the parallel preverify cores of the pipelined ingress
	// (nil in the serial model). An arriving message is charged on the
	// earliest-free core (lowest index on ties).
	verify []time.Time // busy-until per verify core
	// ingressSeq numbers arrivals; reorder holds verified tasks until every
	// earlier arrival has been handed to the apply stage, and nextApply is
	// the next sequence to release. This is the simulated counterpart of the
	// runtime's order-preserving handoff.
	ingressSeq uint64
	nextApply  uint64
	reorder    map[uint64]cpuTask
	// timerAt is the currently scheduled wake-up (zero if none).
	timerAt time.Time
	// trace is the node-stamped event sink for events the simulator itself
	// emits on this node's behalf (monitor samples, NIC-closure drops).
	trace obs.Tracer

	// ---- modelled durability and crash state (see durability.go) ----
	// epoch invalidates scheduled events that captured a pre-crash node
	// incarnation; crashed drops deliveries while the node is down.
	epoch   int
	crashed bool
	// durable is the node's on-disk WAL image (encoded records); it is the
	// ONLY state that survives a crash.
	durable []byte
	// diskBusyUntil serializes flushes on the node's single WAL device.
	diskBusyUntil time.Time
	// pendingFlush and flushWaiters hold the group-commit batch that has
	// been appended but not yet fsynced, and the outputs waiting on it;
	// both are lost on crash.
	pendingFlush []byte
	flushWaiters []flushWaiter
	flushArmed   bool
}

// flushWaiter is one output parked behind the group-commit fsync, with its
// append time (the wal-durable span anchor).
type flushWaiter struct {
	at  time.Time
	out core.Output
}

// Sim is one simulation run.
type Sim struct {
	cfg     Config
	cluster types.Config
	ks      *crypto.KeyStore
	rng     *rand.Rand
	sink    obs.Tracer // every node's event sink (metrics + optional trace)

	// spans caches obs.WantSpans(sink): the metrics aggregator alone does
	// not consume spans, so untraced runs skip span emission entirely.
	spans bool

	events eventHeap
	seq    uint64
	now    time.Time
	endAt  time.Time
	// transit is the delay between a frame's last byte leaving its link and
	// the receiver seeing it: link latency, plus TCP's per-message overhead
	// unless the run is UDP.
	transit time.Duration

	nodes []*simNode
	// clients is indexed by client id; entries are instantiated lazily on
	// first use (clientAt), so a million-addressable-client population only
	// ever materialises the clients that actually send.
	clients  []*simClient
	clientOp []byte // shared fixed payload of the opaque workload
	// kvOps generates KV operations when Workload.KV is configured.
	kvOps *kvOpGen
	// olEpoch invalidates a superseded open-loop arrival process on phase
	// transitions; olNext cycles arrivals through the phase's population.
	olEpoch int
	olNext  int

	metrics *Metrics
}

// New builds a simulator from the configuration.
func New(cfg Config) *Sim {
	cluster := types.NewConfig(cfg.F)
	maxClients := cfg.Workload.maxClients() + 1
	s := &Sim{
		cfg:     cfg,
		cluster: cluster,
		ks:      crypto.NewInsecureFastKeyStore([]byte("rbft-sim"), cluster.N, maxClients),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		now:     time.Unix(0, 0),
		transit: cfg.Cost.LinkLatency,
		metrics: newMetrics(cluster),
	}
	if !cfg.UDP {
		s.transit += cfg.Cost.TCPExtraLatency
	}
	// Every node's events feed the metrics aggregator, and additionally the
	// configured trace sink (JSONL etc.) when one is installed.
	s.sink = obs.Multi(s.metrics, cfg.Trace)
	s.spans = obs.WantSpans(s.sink)
	for i := 0; i < cluster.N; i++ {
		id := types.NodeID(i)
		sn := &simNode{
			node:   s.newCoreNode(id),
			id:     id,
			peers:  cluster.OtherNodes(id),
			queues: make([]cpuQueue, cluster.Instances()+1),
			peerTx: make([]link, cluster.N),
			closed: make(map[types.NodeID]time.Time),
			trace:  obs.WithNode(s.sink, id),
		}
		if cfg.VerifyCores > 0 {
			sn.verify = make([]time.Time, cfg.VerifyCores)
			sn.reorder = make(map[uint64]cpuTask)
		}
		s.nodes = append(s.nodes, sn)
	}
	s.setupClients()
	return s
}

// newCoreNode builds a fresh node state machine for id — used at start-up
// and again when a crashed node restarts (recovery then replays the durable
// log into it).
func (s *Sim) newCoreNode(id types.NodeID) *core.Node {
	nodeCfg := core.Config{
		Cluster:            s.cluster,
		Node:               id,
		BatchSize:          s.cfg.BatchSize,
		BatchTimeout:       s.cfg.BatchTimeout,
		ExecWorkers:        s.cfg.ExecWorkers,
		OrderingMode:       s.cfg.OrderingMode,
		CheckpointInterval: s.cfg.CheckpointInterval,
		WatermarkWindow:    s.cfg.WatermarkWindow,
		MaxClients:         s.cfg.MaxClients,
		Monitoring:         s.cfg.Monitoring,
		Durable:            s.cfg.Durability != DurabilityNone,
	}
	if s.cfg.Workload.KV != nil {
		// The KV workload replicates the keyed store application — the app
		// whose conflict declarations the parallel scheduler consumes. A
		// fresh store per (re)build; recovery replay refills it after a
		// crash.
		nodeCfg.App = app.NewKV()
	}
	node := core.New(nodeCfg, s.ks.NodeRing(id))
	node.SetTracer(s.sink)
	node.SetBehavior(s.cfg.NodeBehavior[id]) // none: the zero, correct behaviour
	return node
}

// Cluster returns the cluster configuration of the run.
func (s *Sim) Cluster() types.Config { return s.cluster }

// Node returns the core node state machine of node id (scripted attacks).
func (s *Sim) Node(id types.NodeID) *core.Node { return s.nodes[id].node }

func (s *Sim) schedule(at time.Time, fn func()) {
	if at.Before(s.now) {
		at = s.now
	}
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, fn: fn})
}

// Run executes the simulation for duration d and returns the collected
// metrics.
func (s *Sim) Run(d time.Duration) *Result {
	start := s.now
	s.endAt = start.Add(d)
	s.metrics.start = start.Add(s.cfg.Warmup)
	s.metrics.end = s.endAt

	s.startWorkload()
	s.startFloods()
	for _, act := range s.cfg.Script {
		s.schedule(act.At, func() { act.Do(s) })
	}
	for _, cr := range s.cfg.Crashes {
		s.schedule(cr.At, func() { s.crashNode(cr.Node) })
		s.schedule(cr.At.Add(cr.Down), func() { s.restartNode(cr.Node) })
	}
	if s.cfg.MonitorSampleEvery > 0 {
		s.schedule(start.Add(s.cfg.MonitorSampleEvery), s.sampleMonitors)
	}
	for _, sn := range s.nodes {
		s.armNodeTimer(sn)
	}

	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(*event)
		if ev.at.After(s.endAt) {
			break
		}
		s.now = ev.at
		ev.fn()
	}
	s.now = s.endAt
	return s.metrics.result(s.cfg)
}

// ---- node task processing ----

// queueFor routes a message to the CPU queue that processes it: node-level
// messages on queue 0, per-instance protocol messages on their instance
// core.
func (s *Sim) queueFor(msg message.Message) int {
	inst, _, ok := message.InstanceAndSender(msg)
	if ok && int(inst) < s.cluster.Instances() {
		return 1 + int(inst)
	}
	return 0
}

// enqueueTask appends a task to a node CPU queue, starting the queue if idle.
func (s *Sim) enqueueTask(sn *simNode, q int, task cpuTask) {
	queue := &sn.queues[q]
	queue.pending = append(queue.pending, task)
	if !queue.running {
		s.startNextTask(sn, q)
	}
}

// startNextTask runs the head-of-queue task at the current time.
func (s *Sim) startNextTask(sn *simNode, q int) {
	queue := &sn.queues[q]
	if len(queue.pending) == 0 {
		queue.running = false
		return
	}
	task := queue.pending[0]
	queue.pending = queue.pending[1:]
	queue.running = true

	cost, out := s.runTask(sn, task)
	done := s.now.Add(cost)
	ep := sn.epoch
	s.schedule(done, func() {
		if sn.epoch != ep {
			return // the node crashed while this task was "running"
		}
		s.emitExecuteSpans(sn, out)
		s.persistThenEmit(sn, out)
		s.armNodeTimer(sn)
		s.startNextTask(sn, q)
	})
}

// runTask invokes the node state machine for one task and returns the CPU
// cost plus the node output (emitted at completion).
func (s *Sim) runTask(sn *simNode, task cpuTask) (time.Duration, core.Output) {
	if task.msg == nil {
		out := sn.node.Tick(s.now)
		return s.outputCost(out), out
	}
	cost := s.cfg.Cost.applyCost(task.msg)
	if sn.verify == nil {
		// The serial model charges preverify and apply as one task on the
		// processing core: the ingress span is the queue wait, the preverify
		// span the verification share of the charged cost.
		cost = s.cfg.Cost.inCost(task.msg, task.sigChecked)
		if s.spans && task.fromClient {
			pv := s.cfg.Cost.preverifyCost(task.msg, task.sigChecked)
			s.emitIngressSpans(sn, task, s.now, s.now.Add(pv), pv)
		}
	}
	var out core.Output
	if task.rej != nil {
		out = sn.node.OnRejected(task.rej, s.now)
	} else {
		out = sn.node.OnVerified(task.v, s.now)
	}
	return cost + s.outputCost(out), out
}

// ---- pipelined ingress (VerifyCores >= 1) ----

// pipeIngress charges a message's stateless verification on the
// earliest-free verify core and schedules the handoff to the apply stage.
func (s *Sim) pipeIngress(sn *simNode, task cpuTask) {
	seq := sn.ingressSeq
	sn.ingressSeq++
	cost := s.cfg.Cost.preverifyCost(task.msg, task.sigChecked)

	// Earliest-free core, lowest index on ties: deterministic and
	// work-conserving.
	coreIdx := 0
	for i := 1; i < len(sn.verify); i++ {
		if sn.verify[i].Before(sn.verify[coreIdx]) {
			coreIdx = i
		}
	}
	start := s.now
	if sn.verify[coreIdx].After(start) {
		start = sn.verify[coreIdx]
	}
	done := start.Add(cost)
	sn.verify[coreIdx] = done
	if s.spans && task.fromClient {
		s.emitIngressSpans(sn, task, start, done, cost)
	}
	ep := sn.epoch
	s.schedule(done, func() {
		if sn.epoch != ep {
			return // crashed mid-verification; the frame is lost
		}
		s.verifyDone(sn, seq, task)
	})
}

// verifyDone parks a task whose verify-core charge has elapsed in the reorder
// buffer until every earlier arrival has been released, preserving ingress
// order into the apply queues.
func (s *Sim) verifyDone(sn *simNode, seq uint64, task cpuTask) {
	sn.reorder[seq] = task
	for {
		next, ok := sn.reorder[sn.nextApply]
		if !ok {
			return
		}
		delete(sn.reorder, sn.nextApply)
		sn.nextApply++
		s.enqueueTask(sn, s.queueFor(next.msg), next)
	}
}

// emitIngressSpans emits a client request's ingress span (arrival to the
// start of preverification) and preverify span (the verification itself).
// start/done bracket the verification; the At of each span is its end.
func (s *Sim) emitIngressSpans(sn *simNode, task cpuTask, start, done time.Time, cost time.Duration) {
	req, ok := task.msg.(*message.Request)
	if !ok {
		return
	}
	sn.trace.Trace(obs.Event{
		At: start, Type: obs.EvSpan, Stage: obs.StageIngress,
		Client: req.Client, Req: req.ID, Dur: start.Sub(task.arrivedAt),
	})
	sn.trace.Trace(obs.Event{
		At: done, Type: obs.EvSpan, Stage: obs.StagePreverify,
		Client: req.Client, Req: req.ID, Dur: cost,
	})
}

// emitExecuteSpans emits one execute span per request executed by a
// completed task. A request's execute span is its wave's span: the wave's
// requests spread over the worker cores (execChargeFor).
func (s *Sim) emitExecuteSpans(sn *simNode, out core.Output) {
	if !s.spans {
		return
	}
	for _, ex := range out.Executions {
		sn.trace.Trace(obs.Event{
			At: s.now, Type: obs.EvSpan, Stage: obs.StageExecute,
			Client: ex.Ref.Client, Req: ex.Ref.ID,
			Trace: obs.TraceID(ex.Ref.Digest), Dur: s.waveCost(out.ExecWaves[ex.Wave]),
		})
	}
}

// outputCost sums the authentication and execution costs of a node output.
func (s *Sim) outputCost(out core.Output) time.Duration {
	var cost time.Duration
	for _, nm := range out.NodeMsgs {
		cost += s.cfg.Cost.outCost(nm.Msg, s.cluster.N)
	}
	for _, cm := range out.ClientMsgs {
		cost += s.cfg.Cost.outCost(cm.Msg, 1)
	}
	return cost + s.execChargeFor(out)
}

// execChargeFor charges an output's executions: the sum of its waves' spans.
// Whatever the worker count, the same total CPU-seconds of execution work are
// done; more workers only compress the critical path, exactly like the
// verify-core pipeline.
func (s *Sim) execChargeFor(out core.Output) time.Duration {
	var cost time.Duration
	for _, n := range out.ExecWaves {
		cost += s.waveCost(n)
	}
	return cost
}

// waveCost is the span of one wave of n non-conflicting requests over the
// ExecWorkers worker cores: ceil(n/k) execution quanta.
func (s *Sim) waveCost(n int) time.Duration {
	k := max(s.cfg.ExecWorkers, 1)
	return time.Duration((n+k-1)/k) * s.cfg.Cost.execCost(s.cfg.Workload.RequestSize)
}

// encode marshals msg into a frame of exactly its encoded size. Encoded bytes
// are the only thing that travels between simulated endpoints; a frame is
// immutable once sent, so a broadcast shares one.
func encode(msg message.Message) []byte {
	return msg.Marshal(make([]byte, 0, msg.EncodedSize()))
}

// emitOutputs transmits a node output over the modelled network. Metric
// recording happens via the event trace at node-processing time; here the
// simulator only applies the network-level effects.
func (s *Sim) emitOutputs(sn *simNode, out core.Output) {
	for _, nc := range out.NICCloses {
		sn.closed[nc.Peer] = nc.Until
	}
	for _, nm := range out.NodeMsgs {
		frame, size := encode(nm.Msg), s.cfg.Cost.wireSize(nm.Msg)
		targets := nm.To
		if targets == nil {
			targets = sn.peers
		}
		for _, to := range targets {
			s.sendNodeToNode(sn, to, frame, size)
		}
	}
	for _, cm := range out.ClientMsgs {
		s.sendNodeToClient(sn, cm.To, cm.Msg)
	}
}

// book reserves l for one physical frame carrying size payload bytes — from
// now, or from when the link frees if it is still transmitting — and returns
// when the frame arrives: the end of its serialization plus transit, the
// delay between the last byte leaving and the receiver seeing the frame
// (s.transit for everything but the client-NIC flood). Every simulated frame
// in flight is booked here; nothing else moves busyUntil.
func (s *Sim) book(l *link, size int, transit time.Duration) time.Time {
	start := s.now
	if l.busyUntil.After(start) {
		start = l.busyUntil
	}
	l.busyUntil = start.Add(s.cfg.Cost.PacketCost(size))
	return l.busyUntil.Add(transit)
}

// sendNodeToNode transmits frame on the dedicated from→to link, occupying it
// for size modelled wire bytes.
func (s *Sim) sendNodeToNode(from *simNode, to types.NodeID, frame []byte, size int) {
	l := &from.peerTx[to]
	if s.cfg.EgressCoalesce > 0 && (l.busyUntil.After(s.now) || len(l.pending) > 0) {
		// Link busy (or a flush is already queued behind it): park the
		// payload; it leaves in the next coalesced frame.
		l.pending = append(l.pending, pendingFrame{frame: frame, size: size})
		if !l.flushArmed {
			l.flushArmed = true
			ep := from.epoch
			s.schedule(l.busyUntil, func() { s.flushLink(from, to, ep) })
		}
		return
	}
	// Link idle: the payload leaves immediately as its own physical frame
	// (greedy flush — coalescing adds no latency when the wire is keeping
	// up, exactly like the runtime's flush policy).
	arrive := s.book(l, size, s.transit)
	dst := s.nodes[to]
	s.schedule(arrive, func() { s.deliverFromNode(dst, frame, from.id) })
}

// flushLink transmits up to EgressCoalesce parked payloads as one coalesced
// physical frame: one packet overhead for the whole batch. Runs when the
// link frees; if more payloads remain parked (a burst larger than one
// batch), the next flush is armed for the end of this transmission.
func (s *Sim) flushLink(from *simNode, to types.NodeID, ep int) {
	l := &from.peerTx[to]
	l.flushArmed = false
	if from.epoch != ep || len(l.pending) == 0 {
		// The sender crashed since this flush was armed (its egress queue
		// died with it) or the queue was cleared; nothing to transmit.
		return
	}
	k := min(len(l.pending), s.cfg.EgressCoalesce)
	batch := l.pending[:k:k]
	l.pending = l.pending[k:]
	total := 0
	for _, pf := range batch {
		total += pf.size
	}
	arrive := s.book(l, total, s.transit)
	dst := s.nodes[to]
	for _, pf := range batch {
		s.schedule(arrive, func() { s.deliverFromNode(dst, pf.frame, from.id) })
	}
	if len(l.pending) > 0 {
		l.flushArmed = true
		s.schedule(l.busyUntil, func() { s.flushLink(from, to, ep) })
	}
}

// deliverFromNode takes a frame off the NIC facing peer from — unless that NIC
// is closed (dropped at zero CPU cost) — and preverifies it.
func (s *Sim) deliverFromNode(sn *simNode, frame []byte, from types.NodeID) {
	if sn.crashed {
		return // the host is down; frames on the wire are lost
	}
	if until, closed := sn.closed[from]; closed {
		if s.now.Before(until) {
			if sn.trace.Enabled() {
				sn.trace.Trace(obs.Event{At: s.now, Type: obs.EvMsgDrop, Peer: from})
			}
			return
		}
		delete(sn.closed, from)
	}
	pv := sn.node.Preverifier()
	_, misses := pv.Cache().Stats()
	v, rej := pv.PreverifyNodeFrame(frame, from)
	s.ingest(sn, frame, misses, cpuTask{v: v, rej: rej})
}

// deliverFromClient takes a frame sent by client from off the client NIC and
// preverifies it.
func (s *Sim) deliverFromClient(sn *simNode, frame []byte, from types.ClientID) {
	if sn.crashed {
		return
	}
	pv := sn.node.Preverifier()
	_, misses := pv.Cache().Stats()
	v, rej := pv.PreverifyClientFrame(frame, from)
	s.ingest(sn, frame, misses, cpuTask{fromClient: true, v: v, rej: rej})
}

// ingest queues a judged frame for the node's CPUs. The preverification above
// is paid in host time; what it costs in virtual time is charged here, on the
// message the frame decodes to — a rejected frame is decoded once more, only to
// be costed, and undecodable bytes cost what an INVALID does. A signature
// check is charged when judging the frame took the node's VerifyCache past
// misses: a miss is a signature verified.
func (s *Sim) ingest(sn *simNode, frame []byte, misses uint64, task cpuTask) {
	task.arrivedAt = s.now
	if _, now := sn.node.Preverifier().Cache().Stats(); now > misses {
		task.sigChecked = true
		sn.sigChecks++
	}
	if task.v != nil {
		task.msg = task.v.Msg
	} else if msg, err := message.Decode(frame); err == nil {
		task.msg = msg
	} else {
		task.msg = &message.Invalid{}
	}
	if sn.verify != nil {
		s.pipeIngress(sn, task)
		return
	}
	s.enqueueTask(sn, s.queueFor(task.msg), task)
}

// sendNodeToClient transmits a reply over the node's client NIC.
func (s *Sim) sendNodeToClient(from *simNode, to types.ClientID, msg message.Message) {
	if int(to) >= len(s.clients) || s.clients[to] == nil {
		return // unknown or never-instantiated client: nothing awaits this reply
	}
	l := &from.clientTx
	frame := encode(msg)
	arrive := s.book(l, len(frame), s.transit)
	if s.spans {
		if rep, ok := msg.(*message.Reply); ok {
			// egress: client-NIC queue wait plus serialization; reply: the
			// wire transit, which only the simulator can observe.
			from.trace.Trace(obs.Event{
				At: l.busyUntil, Type: obs.EvSpan, Stage: obs.StageEgress,
				Client: rep.Client, Req: rep.ID, Dur: l.busyUntil.Sub(s.now),
			})
			from.trace.Trace(obs.Event{
				At: arrive, Type: obs.EvSpan, Stage: obs.StageReply,
				Client: rep.Client, Req: rep.ID, Dur: arrive.Sub(l.busyUntil),
			})
		}
	}
	cl := s.clients[to]
	s.schedule(arrive, func() { s.clientReceive(cl, frame, from.id) })
}

// armNodeTimer keeps exactly one pending wake-up per node.
func (s *Sim) armNodeTimer(sn *simNode) {
	wake := sn.node.NextWake()
	if wake.IsZero() || wake.After(s.endAt) {
		return
	}
	if !sn.timerAt.IsZero() && !sn.timerAt.After(wake) && sn.timerAt.After(s.now) {
		return // an earlier or equal wake-up is already scheduled
	}
	sn.timerAt = wake
	s.schedule(wake, func() { s.fireNodeTimer(sn) })
}

func (s *Sim) fireNodeTimer(sn *simNode) {
	sn.timerAt = time.Time{}
	if sn.crashed {
		return
	}
	wake := sn.node.NextWake()
	if wake.IsZero() {
		return
	}
	if wake.After(s.now) {
		s.armNodeTimer(sn)
		return
	}
	s.enqueueTask(sn, 0, cpuTask{})
}

// sampleMonitors records every node's per-instance monitor throughput as
// EvMonitorSample events (aggregated by Metrics, serialized by trace sinks).
func (s *Sim) sampleMonitors() {
	for _, sn := range s.nodes {
		sn.trace.Trace(obs.Event{
			At: s.now, Type: obs.EvMonitorSample,
			Values: sn.node.Monitor().Throughput(),
		})
	}
	s.schedule(s.now.Add(s.cfg.MonitorSampleEvery), s.sampleMonitors)
}
