// Package runtime drives the RBFT state machines in real time over a live
// transport: one goroutine per node (and per client) multiplexes incoming
// packets and timers, feeds them to the pure state machines, and transmits
// the resulting messages. This is the deployment path; the discrete-event
// simulator in internal/sim drives the same state machines in virtual time.
package runtime

import (
	"fmt"
	stdruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rbft/internal/client"
	"rbft/internal/core"
	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/transport"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// NodeName returns the canonical endpoint name of a node.
func NodeName(id types.NodeID) string { return "node/" + strconv.Itoa(int(id)) }

// ClientName returns the canonical endpoint name of a client.
func ClientName(id types.ClientID) string { return "client/" + strconv.Itoa(int(id)) }

// endpoint is a transport peer by kind and id. The drivers address peers by
// it — egress queues are keyed by it, so sending formats no string — and its
// wire name is built once, when the peer's queue is created.
type endpoint struct {
	client bool
	id     int
}

func nodeEndpoint(id types.NodeID) endpoint     { return endpoint{id: int(id)} }
func clientEndpoint(id types.ClientID) endpoint { return endpoint{client: true, id: int(id)} }

// name returns the endpoint's wire name (NodeName / ClientName).
func (ep endpoint) name() string {
	if ep.client {
		return ClientName(types.ClientID(ep.id))
	}
	return NodeName(types.NodeID(ep.id))
}

// parseName is the inverse of name: it rejects anything but a node or client
// endpoint name.
func parseName(name string) (endpoint, error) {
	kind, v, ok := strings.Cut(name, "/")
	if !ok || (kind != "node" && kind != "client") {
		return endpoint{}, fmt.Errorf("runtime: malformed endpoint name %q", name)
	}
	id, err := strconv.Atoi(v)
	if err != nil {
		return endpoint{}, fmt.Errorf("runtime: malformed endpoint name %q: %w", name, err)
	}
	return endpoint{client: kind == "client", id: id}, nil
}

// NodeOptions tunes a node runtime.
type NodeOptions struct {
	// WAL, when set, receives every durability record the node emits; an
	// output's records are persisted (group-committed and fsynced) before
	// any of its messages are transmitted. The node must have been built
	// with core.Config.Durable, and restored from this log, by the caller.
	// The caller keeps ownership: close it after Stop returns.
	WAL *wal.Log
	// Metrics, when set, receives the egress gauges and counters (per-link
	// queue depth and drops).
	Metrics *obs.Registry
	// Tracer, when set, additionally receives the runtime's own events stamped
	// with this node's id: its lifecycle spans (ingress wait, preverify, WAL
	// wait, egress; skipped when the tracer opts out via obs.SpanSink) and an
	// EvMsgDrop per frame dropped from a closed NIC (see nicClosed).
	Tracer obs.Tracer
}

// ingressWorkers is the preverify worker-pool size: one per CPU, capped —
// past a handful of workers the serial apply stage is the bottleneck and more
// verifiers only add scheduling noise.
var ingressWorkers = min(stdruntime.NumCPU(), 8)

// ingressQueueDepth bounds the in-flight ingress items between the reader,
// the verifier pool (work) and the apply loop (pending, in slabs). Beyond it
// the reader blocks and the transport's backpressure/drop policy takes over.
const ingressQueueDepth = 1024

// ingressItem is one raw frame travelling through the two-stage pipeline, a
// slot of the slab readLoop allocates per drain. Slabs are plain garbage,
// never recycled: verifier workers hold pointers into them, and a reused slab
// would be a use-after-release the latch cannot see.
// ready is a one-shot latch embedded in the item (no per-frame channel):
// classify arms it, the verifier worker releases it once v/err are set, and
// the apply loop waits on it item by item in arrival order, so apply order is
// ingress order whichever worker finishes first. The wait always ends:
// readLoop puts an item into work before its slab into pending and the
// verifier pool drains work even on shutdown.
type ingressItem struct {
	data []byte
	from endpoint
	at   time.Time // arrival stamp, set only when spans are on

	ready sync.WaitGroup
	v     *message.Verified
	err   error
}

// NodeRuntime runs one RBFT node over a transport using the two-stage
// ingress pipeline (docs/PIPELINE.md): a reader goroutine classifies frames
// and enqueues them, a pool of verifier goroutines runs the stateless
// preverify stage concurrently, and the apply loop consumes verified items
// in arrival order, feeding the node state machine. The apply loop is the
// node's only owner: it holds the node as a parameter, not a field, so no
// other stage can reach it while the loop runs, and WithNode hands its
// closure to the loop.
type NodeRuntime struct {
	cluster types.Config
	tr      transport.Transport
	pre     *message.Preverifier // stateless; shared by the verifier pool
	wal     *wal.Log             // nil unless durability is on
	peers   []types.NodeID       // every other node, the targets of a broadcast; immutable
	eg      *egress              // per-peer send queues and workers

	sp     obs.Tracer     // node-stamped NodeOptions.Tracer; Nop without one
	spans  bool           // cached obs.WantSpans(opts.Tracer)
	closed []atomic.Int64 // per node id: UnixNano until which its NIC is closed

	work    chan *ingressItem     // reader -> verifier pool, one frame at a time
	pending chan []ingressItem    // reader -> apply loop, arrival-ordered slabs
	calls   chan func(*core.Node) // WithNode -> apply loop
	parked  chan *core.Node       // the node, handed back once the apply loop has exited
	stop    chan struct{}         // closed once, by Stop
	stopped sync.Once
	done    chan struct{} // apply loop exited
	wg      sync.WaitGroup
}

// StartNodeOpts launches the pipeline for node over tr. The caller retains
// no right to touch node; WithNode runs code on the apply loop that owns it.
func StartNodeOpts(node *core.Node, tr transport.Transport, cluster types.Config, opts NodeOptions) *NodeRuntime {
	nr := &NodeRuntime{
		cluster: cluster,
		tr:      tr,
		pre:     node.Preverifier(),
		wal:     opts.WAL,
		peers:   cluster.OtherNodes(node.ID()),
		sp:      obs.WithNode(opts.Tracer, node.ID()),
		spans:   obs.WantSpans(opts.Tracer),
		closed:  make([]atomic.Int64, cluster.N),
		work:    make(chan *ingressItem, ingressQueueDepth),
		pending: make(chan []ingressItem, ingressQueueDepth/egressMaxCoalesce),
		calls:   make(chan func(*core.Node)),
		parked:  make(chan *core.Node, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	nr.eg = newEgress(tr, opts.WAL, NodeName(node.ID()), opts.Metrics, nr.stop)
	nr.eg.sp, nr.eg.spans = nr.sp, nr.spans
	nr.wg.Add(1 + ingressWorkers)
	for i := 0; i < ingressWorkers; i++ {
		go nr.verifyLoop()
	}
	go nr.readLoop()
	go nr.applyLoop(node)
	return nr
}

// WithNode runs fn on the apply loop, between two slabs, transmits any output
// it produced, and only then returns (fault-injection hooks and probes). fn
// already runs on the loop, so it must not call WithNode itself: that would
// wait for the loop it is blocking. After Stop, fn runs on the caller and its
// output is dropped, because a stopped node does not send.
func (nr *NodeRuntime) WithNode(fn func(n *core.Node) core.Output) {
	ran := make(chan struct{})
	call := func(n *core.Node) {
		nr.emit(fn(n))
		close(ran)
	}
	select {
	case nr.calls <- call:
		<-ran
	case n := <-nr.parked:
		fn(n)
		nr.parked <- n
	}
}

// Stop terminates the pipeline and waits for every stage — including the
// egress workers — to exit. The transport is closed as part of shutdown;
// frames still queued for egress are dropped (the protocol tolerates loss).
func (nr *NodeRuntime) Stop() {
	nr.stopped.Do(func() { close(nr.stop) })
	nr.tr.Close()
	<-nr.done
	nr.wg.Wait()
	nr.eg.wait()
}

// readLoop waits for one frame, takes what Packets() already holds with it
// (drainInto: an idle node's frame is a slab of one) and allocates one slab
// for the lot. Each frame is classified and enqueued into work first (so the
// verifier pool can start, and every item the apply loop ever sees becomes
// ready), then the slab goes into pending to fix the apply order.
func (nr *NodeRuntime) readLoop() {
	defer nr.wg.Done()
	defer close(nr.work)
	defer close(nr.pending)
	buf := make([]transport.Packet, 0, egressMaxCoalesce)
	for p := range nr.tr.Packets() {
		buf = drainInto(append(buf[:0], p), nr.tr.Packets())
		slab := make([]ingressItem, len(buf))
		n := 0
		for _, p := range buf {
			if it := &slab[n]; nr.classify(p, it) {
				nr.work <- it
				n++
			}
		}
		clear(buf) // the frames belong to the slab now
		if n > 0 {
			select {
			case nr.pending <- slab[:n]:
			case <-nr.stop:
				return
			}
		}
	}
}

// classify fills the zero slab slot it and arms its latch. A frame from an
// unknown endpoint, or from a node whose NIC is closed, leaves it be: false.
func (nr *NodeRuntime) classify(p transport.Packet, it *ingressItem) bool {
	ep, err := parseName(p.From)
	if err != nil || (!ep.client && (ep.id < 0 || ep.id >= nr.cluster.N || nr.nicClosed(types.NodeID(ep.id)))) {
		return false
	}
	it.data, it.from = p.Data, ep
	it.ready.Add(1)
	if nr.spans {
		it.at = time.Now()
	}
	return true
}

// nicClosed reports whether the NIC toward node id is closed (emit stores the
// deadline of each core.Output.NICCloses), so that its frame is dropped before
// it costs a decode, a MAC or a verifier, traced as the simulator traces it.
// Only a node whose NIC was ever closed costs a clock read.
func (nr *NodeRuntime) nicClosed(id types.NodeID) bool {
	if until := nr.closed[id].Load(); until == 0 || time.Now().UnixNano() >= until {
		return false
	}
	nr.sp.Trace(obs.Event{At: time.Now(), Type: obs.EvMsgDrop, Peer: id})
	return true
}

// verifyLoop is one verifier worker: it runs the stateless preverify stage
// (decode + MAC/signature checks) with no access to node state, so any
// number of workers can run concurrently with the apply loop.
//
//rbft:verifier
func (nr *NodeRuntime) verifyLoop() {
	defer nr.wg.Done()
	for it := range nr.work {
		var t0 time.Time
		if nr.spans {
			t0 = time.Now()
		}
		if it.from.client {
			it.v, it.err = nr.pre.PreverifyClientFrame(it.data, types.ClientID(it.from.id))
		} else {
			it.v, it.err = nr.pre.PreverifyNodeFrame(it.data, types.NodeID(it.from.id))
		}
		if nr.spans && it.from.client && it.err == nil {
			nr.emitIngressSpans(it, t0)
		}
		it.ready.Done()
	}
}

// emitIngressSpans emits a client request's ingress span (arrival to the
// start of preverification — the queue wait behind the verifier pool) and
// preverify span (the crypto itself), mirroring the simulator's schema.
func (nr *NodeRuntime) emitIngressSpans(it *ingressItem, t0 time.Time) {
	req, ok := it.v.Msg.(*message.Request)
	if !ok {
		return
	}
	t1 := time.Now()
	nr.sp.Trace(obs.Event{
		At: t0, Type: obs.EvSpan, Stage: obs.StageIngress,
		Client: req.Client, Req: req.ID, Dur: t0.Sub(it.at),
	})
	nr.sp.Trace(obs.Event{
		At: t1, Type: obs.EvSpan, Stage: obs.StagePreverify,
		Client: req.Client, Req: req.ID, Dur: t1.Sub(t0),
	})
}

// applyLoop owns node: it consumes slabs of preverified items in arrival
// order and drives the node state machine, re-arming its timer once per slab,
// and runs WithNode's closures between slabs. Protocol timers are
// deadline-checked before every apply: a saturated ingress queue or a long
// slab must not starve batch deadlines or the monitoring period, so overdue
// ticks fire ahead of the next message, not by select fairness. On exit it
// parks the node for WithNode callers that come after Stop.
func (nr *NodeRuntime) applyLoop(node *core.Node) {
	defer close(nr.done)
	defer func() { nr.parked <- node }()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		rearm(timer, node.NextWake())
		select {
		case <-nr.stop:
			return
		case slab, ok := <-nr.pending:
			if !ok {
				return
			}
			for i := range slab {
				slab[i].ready.Wait()
				nr.apply(node, &slab[i])
			}
		case call := <-nr.calls:
			call(node)
		case now := <-timer.C:
			nr.emit(node.Tick(now))
		}
	}
}

// apply feeds one verified (or rejected) item to the node, firing any
// overdue timer first.
func (nr *NodeRuntime) apply(node *core.Node, it *ingressItem) {
	now := time.Now()
	if wake := node.NextWake(); !wake.IsZero() && !now.Before(wake) {
		nr.emit(node.Tick(now))
	}
	if it.err != nil {
		nr.emit(node.OnRejected(it.err, now))
	} else {
		nr.emit(node.OnVerified(it.v, now))
	}
}

// rearm points an event loop's timer at its state machine's next wake-up
// (an hour out when there is none).
func rearm(timer *time.Timer, wake time.Time) {
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	d := time.Hour
	if !wake.IsZero() {
		d = time.Until(wake) // not positive when overdue: fires at once
	}
	timer.Reset(d)
}

// emit hands a node output to the egress pipeline. It never touches the
// wire and never blocks: each message is encoded once into a pooled buffer
// and the frame is fanned out to the per-peer queues (drop-oldest on
// overflow), so a dead or wedged peer can never stall the apply loop.
// Durability records are appended to the WAL here — a cheap buffer copy —
// but the fsync wait happens on the egress workers, which hold the frames
// back until the WAL is durable past the output's horizon (log-before-send).
func (nr *NodeRuntime) emit(out core.Output) {
	var lsn uint64
	if nr.wal != nil && len(out.Records) > 0 {
		var err error
		lsn, err = nr.wal.Append(out.Records...)
		if err != nil {
			// A node that cannot persist must not speak: swallowing the
			// output is indistinguishable from crashing here, and the
			// protocol tolerates crashes. Sending anyway could equivocate
			// after a restart.
			return
		}
	}
	for _, nc := range out.NICCloses {
		nr.closed[nc.Peer].Store(nc.Until.UnixNano())
	}
	for _, nm := range out.NodeMsgs {
		targets := nm.To
		if targets == nil {
			targets = nr.peers
		}
		if len(targets) == 0 {
			continue
		}
		f := &egressFrame{buf: message.Encode(nm.Msg), lsn: lsn, refs: int32(len(targets))}
		for _, to := range targets {
			nr.eg.enqueue(nodeEndpoint(to), f)
		}
	}
	for _, cm := range out.ClientMsgs {
		f := &egressFrame{buf: message.Encode(cm.Msg), lsn: lsn, refs: 1}
		if rep, ok := cm.Msg.(*message.Reply); ok && nr.spans {
			f.at, f.client, f.req, f.answers = time.Now(), rep.Client, rep.ID, rep.Len()
		}
		nr.eg.enqueue(clientEndpoint(cm.To), f)
	}
}

// ClientRuntime runs one RBFT client over a transport.
type ClientRuntime struct {
	tr    transport.Transport
	nodes []string // every node's wire name, the targets of a broadcast; immutable

	mu sync.Mutex
	cl *client.Client // guarded by mu

	queued      chan struct{} // wakes the loop to flush what Submit/Invoke queued
	completions chan client.Completed
	completed   []client.Completed // handlePacket's working slice; the loop's own
	stop        chan struct{}      // closed once, by Stop
	stopped     sync.Once
	done        chan struct{}
}

// StartClient launches the event loop for cl over tr.
func StartClient(cl *client.Client, tr transport.Transport, cluster types.Config) *ClientRuntime {
	cr := &ClientRuntime{
		tr:          tr,
		cl:          cl,
		queued:      make(chan struct{}, 1),
		completions: make(chan client.Completed, 1024),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	for _, id := range cluster.AllNodes() {
		cr.nodes = append(cr.nodes, NodeName(id))
	}
	go cr.loop()
	return cr
}

// Submit queues a request for op (open loop: it does not wait for it); the
// client loop signs what is queued when it wakes as one bundle, never waiting
// for more, and sends it to every node (docs/CLIENTS.md § Bundles). op must
// not be modified after the call: it is signed, and resent, as it is.
func (cr *ClientRuntime) Submit(op []byte) { cr.enqueue(op) }

// enqueue queues op under the next request id and wakes the loop.
func (cr *ClientRuntime) enqueue(op []byte) types.RequestID {
	cr.mu.Lock()
	id := cr.cl.Queue(op, time.Now())
	cr.mu.Unlock()
	select {
	case cr.queued <- struct{}{}:
	default:
	}
	return id
}

// broadcast transmits reqs to every node, each marshaled into a fresh buffer
// that nothing writes again (memnet hands it to every node as it is). Send
// errors are best-effort: the client retransmits until f+1 replies match.
func (cr *ClientRuntime) broadcast(reqs []*message.Request) {
	for _, req := range reqs {
		data := req.Marshal(make([]byte, 0, req.EncodedSize()))
		for _, name := range cr.nodes {
			_ = cr.tr.Send(name, data)
		}
	}
}

// Completions streams accepted results (f+1 matching replies).
func (cr *ClientRuntime) Completions() <-chan client.Completed { return cr.completions }

// Invoke submits op and blocks until it completes or the timeout expires.
// It must not run concurrently with other Invoke/Submit consumers of the
// Completions channel.
func (cr *ClientRuntime) Invoke(op []byte, timeout time.Duration) (client.Completed, error) {
	id := cr.enqueue(op)
	deadline := time.After(timeout)
	for {
		select {
		case done := <-cr.completions:
			if done.ID == id {
				return done, nil
			}
			// Another in-flight request finished; keep waiting for ours.
		case <-deadline:
			return client.Completed{}, fmt.Errorf("runtime: request %d timed out after %v", id, timeout)
		}
	}
}

// Stop terminates the event loop.
func (cr *ClientRuntime) Stop() {
	cr.stopped.Do(func() { close(cr.stop) })
	cr.tr.Close()
	<-cr.done
}

// loop is the client's event loop. It takes the REPLYs Packets() already
// holds in one round, so a burst pays the scan of pending requests for the
// next wake-up, and the timer re-arm, once; it flushes what enqueue queued.
func (cr *ClientRuntime) loop() {
	defer close(cr.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	buf := make([]transport.Packet, 0, egressMaxCoalesce)
	for {
		cr.mu.Lock()
		wake := cr.cl.NextWake()
		cr.mu.Unlock()
		rearm(timer, wake)
		select {
		case <-cr.stop:
			return
		case p, ok := <-cr.tr.Packets():
			if !ok {
				return
			}
			buf = drainInto(append(buf[:0], p), cr.tr.Packets())
			for _, p := range buf {
				cr.handlePacket(p)
			}
			clear(buf)
		case <-cr.queued:
			cr.mu.Lock()
			reqs := cr.cl.Flush(time.Now(), transport.PayloadBudget(cr.tr))
			cr.mu.Unlock()
			cr.broadcast(reqs)
		case now := <-timer.C:
			cr.mu.Lock()
			reqs := cr.cl.Tick(now)
			cr.mu.Unlock()
			cr.broadcast(reqs)
		}
	}
}

// handlePacket feeds one packet to the client, cheapest check first: only a
// node's frame is worth decoding, and only a REPLY is worth the lock.
func (cr *ClientRuntime) handlePacket(p transport.Packet) {
	from, err := parseName(p.From)
	if err != nil || from.client {
		return
	}
	msg, _ := message.Decode(p.Data) // nil when undecodable
	rep, ok := msg.(*message.Reply)
	if !ok {
		return
	}
	cr.mu.Lock()
	cr.completed = cr.cl.OnReplies(rep, types.NodeID(from.id), time.Now(), cr.completed[:0])
	cr.mu.Unlock()
	for _, done := range cr.completed {
		select {
		case cr.completions <- done:
		default:
			// Consumer not draining; drop rather than wedge the loop.
		}
	}
}
