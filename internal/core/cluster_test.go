package core

import (
	"testing"
	"time"

	"rbft/internal/app"
	"rbft/internal/client"
	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/pbft"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// nodeCluster wires N core.Nodes and a set of clients through an in-memory
// queue under a virtual clock. Used by the node-level tests; the full-fidelity
// driver with network and CPU cost models lives in internal/sim.
type nodeCluster struct {
	t       testing.TB
	cfg     types.Config
	ks      *crypto.KeyStore
	nodes   []*Node
	apps    []*app.Counter
	clients map[types.ClientID]*client.Client

	queue     []clusterEvent
	now       time.Time
	completed map[types.ClientID][]client.Completed
	executed  map[types.NodeID][]types.RequestRef
	icEvents  []ICEvent
	nicCloses []NICClose
	// records accumulates each node's durability log in emission order,
	// playing the role of that node's WAL for restart tests.
	records map[types.NodeID][]wal.Record
	// linkDown[from][to] drops node-to-node traffic.
	linkDown map[types.NodeID]map[types.NodeID]bool
	// onReply, when set, sees every reply frame a client receives.
	onReply func(from types.NodeID, rep *message.Reply)
	// hold, when set, keeps back the events it picks, in held.
	hold func(ev clusterEvent) bool
	held []clusterEvent
}

type clusterEvent struct {
	// Exactly one of toNode/toClient delivery shapes is used.
	fromNode   types.NodeID
	fromClient types.ClientID
	isClient   bool // origin is a client
	toNode     types.NodeID
	toClient   types.ClientID
	nodeDst    bool
	// frame is the encoded message: bytes are all that travels, and a
	// broadcast shares one immutable frame.
	frame []byte
}

func newNodeCluster(t testing.TB, f int, tweak func(*Config)) *nodeCluster {
	t.Helper()
	cfg := types.NewConfig(f)
	nc := &nodeCluster{
		t:         t,
		cfg:       cfg,
		ks:        crypto.NewKeyStore([]byte("core-test"), cfg.N, 16),
		now:       time.Unix(0, 0),
		clients:   make(map[types.ClientID]*client.Client),
		completed: make(map[types.ClientID][]client.Completed),
		executed:  make(map[types.NodeID][]types.RequestRef),
		records:   make(map[types.NodeID][]wal.Record),
		linkDown:  make(map[types.NodeID]map[types.NodeID]bool),
	}
	for i := 0; i < cfg.N; i++ {
		counter := app.NewCounter()
		c := Config{
			Cluster:      cfg,
			Node:         types.NodeID(i),
			App:          counter,
			BatchSize:    8,
			BatchTimeout: time.Millisecond,
		}
		c.Monitoring.Period = 50 * time.Millisecond
		c.Monitoring.Delta = 0.5
		c.Monitoring.MinRequests = 5
		if tweak != nil {
			tweak(&c)
		}
		nc.apps = append(nc.apps, counter)
		nc.nodes = append(nc.nodes, New(c, nc.ks.NodeRing(types.NodeID(i))))
	}
	return nc
}

func (nc *nodeCluster) client(id types.ClientID) *client.Client {
	cl := nc.clients[id]
	if cl == nil {
		cl = client.New(client.Config{Cluster: nc.cfg, ID: id}, nc.ks.ClientRing(id))
		nc.clients[id] = cl
	}
	return cl
}

// sendRequest has client id send op to all nodes (or only the given subset).
func (nc *nodeCluster) sendRequest(id types.ClientID, op []byte, onlyTo ...types.NodeID) *message.Request {
	cl := nc.client(id)
	req := cl.NewRequest(op, nc.now)
	targets := onlyTo
	if len(targets) == 0 {
		targets = nc.cfg.AllNodes()
	}
	frame := frameOf(req)
	for _, n := range targets {
		nc.queue = append(nc.queue, clusterEvent{
			isClient: true, fromClient: id, toNode: n, nodeDst: true, frame: frame,
		})
	}
	return req
}

func (nc *nodeCluster) collect(from types.NodeID, out Output) {
	nc.icEvents = append(nc.icEvents, out.InstanceChanges...)
	nc.nicCloses = append(nc.nicCloses, out.NICCloses...)
	nc.records[from] = append(nc.records[from], out.Records...)
	// ExecWaves always describes Executions: every execution sits in a wave
	// of the plan, the waves hold exactly the executions, and a node that
	// cannot share waves reports one per request.
	inWave := make([]int, len(out.ExecWaves))
	for _, ex := range out.Executions {
		nc.executed[from] = append(nc.executed[from], ex.Ref)
		if ex.Wave < 0 || ex.Wave >= len(inWave) {
			nc.t.Fatalf("node %d: execution in wave %d of a %d-wave plan", from, ex.Wave, len(inWave))
		}
		inWave[ex.Wave]++
	}
	for w, size := range out.ExecWaves {
		if inWave[w] != size {
			nc.t.Fatalf("node %d: wave %d planned for %d requests, holds %d", from, w, size, inWave[w])
		}
		if size != 1 && !nc.nodes[from].sched.Parallel() {
			nc.t.Fatalf("node %d: wave of %d on a node that cannot share waves", from, size)
		}
	}
	for _, cm := range out.ClientMsgs {
		nc.queue = append(nc.queue, clusterEvent{fromNode: from, toClient: cm.To, frame: frameOf(cm.Msg)})
	}
	for _, nm := range out.NodeMsgs {
		frame := frameOf(nm.Msg)
		targets := nm.To
		if targets == nil {
			for i := 0; i < nc.cfg.N; i++ {
				if types.NodeID(i) != from {
					targets = append(targets, types.NodeID(i))
				}
			}
		}
		for _, to := range targets {
			if nc.linkDown[from][to] {
				continue
			}
			nc.queue = append(nc.queue, clusterEvent{fromNode: from, toNode: to, nodeDst: true, frame: frame})
		}
	}
}

// runFor advances the virtual clock by d, delivering messages and firing
// timers.
func (nc *nodeCluster) runFor(d time.Duration) {
	nc.t.Helper()
	end := nc.now.Add(d)
	for steps := 0; ; steps++ {
		if steps > 5_000_000 {
			nc.t.Fatal("nodeCluster.runFor: runaway event loop")
		}
		if len(nc.queue) > 0 {
			ev := nc.queue[0]
			nc.queue = nc.queue[1:]
			if nc.hold != nil && nc.hold(ev) {
				nc.held = append(nc.held, ev)
				continue
			}
			nc.deliver(ev)
			continue
		}
		var wake time.Time
		consider := func(w time.Time) {
			if w.IsZero() {
				return
			}
			if wake.IsZero() || w.Before(wake) {
				wake = w
			}
		}
		for _, n := range nc.nodes {
			consider(n.NextWake())
		}
		for _, cl := range nc.clients {
			consider(cl.NextWake())
		}
		if wake.IsZero() || wake.After(end) {
			nc.now = end
			return
		}
		if wake.After(nc.now) {
			nc.now = wake
		}
		for i, n := range nc.nodes {
			w := n.NextWake()
			if !w.IsZero() && !nc.now.Before(w) {
				nc.collect(types.NodeID(i), n.Tick(nc.now))
			}
		}
		for id, cl := range nc.clients {
			w := cl.NextWake()
			if !w.IsZero() && !nc.now.Before(w) {
				for _, req := range cl.Tick(nc.now) {
					frame := frameOf(req)
					for _, n := range nc.cfg.AllNodes() {
						nc.queue = append(nc.queue, clusterEvent{
							isClient: true, fromClient: id, toNode: n, nodeDst: true, frame: frame,
						})
					}
				}
			}
		}
	}
}

// frameOf encodes msg into a frame of exactly its size.
func frameOf(msg message.Message) []byte {
	return msg.Marshal(make([]byte, 0, msg.EncodedSize()))
}

// onClientFrame and onNodeFrame feed one frame to a node the way every driver
// does: preverify the frame, then OnVerified or OnRejected.
func onClientFrame(n *Node, frame []byte, from types.ClientID, now time.Time) Output {
	v, err := n.Preverifier().PreverifyClientFrame(frame, from)
	if err != nil {
		return n.OnRejected(err, now)
	}
	return n.OnVerified(v, now)
}

func onNodeFrame(n *Node, frame []byte, from types.NodeID, now time.Time) Output {
	v, err := n.Preverifier().PreverifyNodeFrame(frame, from)
	if err != nil {
		return n.OnRejected(err, now)
	}
	return n.OnVerified(v, now)
}

// onClientRequest and onNodeMessage feed a node the encoding of one message,
// sent by the client the request names or by node from.
func onClientRequest(n *Node, req *message.Request, now time.Time) Output {
	return onClientFrame(n, frameOf(req), req.Client, now)
}

func onNodeMessage(n *Node, msg message.Message, from types.NodeID, now time.Time) Output {
	return onNodeFrame(n, frameOf(msg), from, now)
}

func (nc *nodeCluster) deliver(ev clusterEvent) {
	if ev.nodeDst {
		node := nc.nodes[ev.toNode]
		if ev.isClient {
			nc.collect(ev.toNode, onClientFrame(node, ev.frame, ev.fromClient, nc.now))
			return
		}
		nc.collect(ev.toNode, onNodeFrame(node, ev.frame, ev.fromNode, nc.now))
		return
	}
	// To a client.
	cl := nc.clients[ev.toClient]
	if cl == nil {
		return
	}
	msg, err := message.Decode(ev.frame)
	if err != nil {
		nc.t.Fatalf("node %d sent client %d an undecodable frame: %v", ev.fromNode, ev.toClient, err)
	}
	rep, ok := msg.(*message.Reply)
	if !ok {
		return
	}
	if nc.onReply != nil {
		nc.onReply(ev.fromNode, rep)
	}
	nc.completed[ev.toClient] = cl.OnReplies(rep, ev.fromNode, nc.now, nc.completed[ev.toClient])
}

// requireQuiescent asserts that the records' one lifetime rule did its job on
// a cluster in which every node has executed every request: no node (nc's
// own, or the given ones) holds a request record — which is also where its
// replicas keep their state — and no client is left with a pending-body
// count.
func (nc *nodeCluster) requireQuiescent(nodes ...*Node) {
	nc.t.Helper()
	if len(nodes) == 0 {
		nodes = nc.nodes
	}
	for _, n := range nodes {
		if got := len(n.pending); got != 0 {
			nc.t.Errorf("node %d still holds pending records under %d request keys", n.ID(), got)
		}
		for id := range nc.clients {
			if cs := n.table.clients[id]; cs != nil && cs.pendingBodies != 0 {
				nc.t.Errorf("node %d counts %d pending bodies for client %d", n.ID(), cs.pendingBodies, id)
			}
		}
	}
}

func sameRefs(a, b []types.RequestRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEndToEndExecution(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	for i := 0; i < 20; i++ {
		nc.sendRequest(1, []byte{0, 0, 0, 0, 0, 0, 0, 2}) // +2 each
	}
	nc.runFor(200 * time.Millisecond)

	if got := len(nc.completed[1]); got != 20 {
		t.Fatalf("client completed %d requests, want 20", got)
	}
	for i := 1; i < nc.cfg.N; i++ {
		if nc.apps[i].Fingerprint() != nc.apps[0].Fingerprint() {
			t.Fatalf("node %d execution fingerprint differs", i)
		}
		if !sameRefs(nc.executed[0], nc.executed[types.NodeID(i)]) {
			t.Fatalf("node %d executed different sequence", i)
		}
	}
	if total := nc.apps[0].Total(1); total != 40 {
		t.Fatalf("counter total = %d, want 40", total)
	}
	nc.requireQuiescent()
}

func TestRequestToSingleNodeStillExecutes(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	// The client sends only to node 2: PROPAGATE must spread it.
	nc.sendRequest(1, nil, 2)
	nc.runFor(100 * time.Millisecond)
	for i := 0; i < nc.cfg.N; i++ {
		if got := len(nc.executed[types.NodeID(i)]); got != 1 {
			t.Fatalf("node %d executed %d requests, want 1 (propagation)", i, got)
		}
	}
	if got := len(nc.completed[1]); got != 1 {
		t.Fatalf("client completed %d, want 1", got)
	}
	nc.requireQuiescent()
}

func TestInvalidSignatureBlacklistsClient(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	cl := nc.client(1)
	req := cl.NewRequest([]byte("x"), nc.now)
	req.Sig[0] ^= 0xff // corrupt the signature, then re-MAC so MAC passes
	req.Auth = nc.ks.ClientRing(1).AuthenticatorForNodes(nc.cfg.N, req.Body())
	for _, n := range nc.cfg.AllNodes() {
		nc.queue = append(nc.queue, clusterEvent{isClient: true, fromClient: 1, toNode: n, nodeDst: true, frame: frameOf(req)})
	}
	nc.runFor(50 * time.Millisecond)
	if got := len(nc.executed[0]); got != 0 {
		t.Fatalf("executed %d forged requests", got)
	}
	// Subsequent valid requests from the blacklisted client are ignored.
	nc.sendRequest(1, []byte("y"))
	nc.runFor(50 * time.Millisecond)
	if got := len(nc.executed[0]); got != 0 {
		t.Fatalf("blacklisted client got %d requests executed", got)
	}
	// Another client is unaffected.
	nc.sendRequest(2, []byte("z"))
	nc.runFor(50 * time.Millisecond)
	if got := len(nc.executed[0]); got != 1 {
		t.Fatalf("innocent client executed %d, want 1", got)
	}
}

func TestBadMACDropped(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	cl := nc.client(1)
	req := cl.NewRequest([]byte("x"), nc.now)
	for i := 0; i < req.Auth.Entries(); i++ {
		req.Auth.Entry(i)[0] ^= 0xff
	}
	for _, n := range nc.cfg.AllNodes() {
		nc.queue = append(nc.queue, clusterEvent{isClient: true, fromClient: 1, toNode: n, nodeDst: true, frame: frameOf(req)})
	}
	nc.runFor(50 * time.Millisecond)
	if got := len(nc.executed[0]); got != 0 {
		t.Fatalf("executed %d requests with bad MACs", got)
	}
	// Bad MAC must not blacklist (it could be a network fault, and MACs do
	// not prove client origin to third parties).
	nc.sendRequest(1, []byte("y"))
	nc.runFor(50 * time.Millisecond)
	if got := len(nc.executed[0]); got != 1 {
		t.Fatalf("client wrongly blacklisted after MAC failure: executed %d", got)
	}
}

func TestRetransmissionGetsCachedReply(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	req := nc.sendRequest(1, []byte{0, 0, 0, 0, 0, 0, 0, 5})
	nc.runFor(100 * time.Millisecond)
	if got := len(nc.completed[1]); got != 1 {
		t.Fatalf("completed %d, want 1", got)
	}
	// Deliver the same request again: nodes must reply from cache without
	// re-executing.
	before := nc.apps[0].Total(1)
	out := onClientRequest(nc.nodes[0], req, nc.now)
	if len(out.ClientMsgs) != 1 {
		t.Fatalf("retransmission produced %d client messages, want 1 cached reply", len(out.ClientMsgs))
	}
	if nc.apps[0].Total(1) != before {
		t.Fatal("retransmission re-executed the request")
	}
	nc.requireQuiescent()
}

func TestSilentMasterPrimaryTriggersInstanceChange(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	masterPrimary := nc.nodes[0].MasterPrimary()
	nc.nodes[masterPrimary].SetBehavior(Behavior{
		Instance: map[types.InstanceID]pbft.Behavior{
			types.MasterInstance: {Silent: true},
		},
	})
	oldView := nc.nodes[0].View()

	// Sustained load so the monitor sees backup progress.
	for round := 0; round < 10; round++ {
		for i := 0; i < 10; i++ {
			nc.sendRequest(1, nil)
		}
		nc.runFor(60 * time.Millisecond)
	}

	if len(nc.icEvents) == 0 {
		t.Fatal("no instance change despite a silent master primary")
	}
	for i, n := range nc.nodes {
		if types.NodeID(i) == masterPrimary {
			continue
		}
		if n.View() == oldView {
			t.Fatalf("node %d still in view %d", i, oldView)
		}
		if n.MasterPrimary() == masterPrimary {
			t.Fatalf("master primary did not move off node %d", masterPrimary)
		}
	}
	// Liveness restored: all sent requests eventually execute on correct
	// nodes.
	nc.runFor(300 * time.Millisecond)
	correct := types.NodeID(0)
	if correct == masterPrimary {
		correct = 1
	}
	if got := len(nc.executed[correct]); got != 100 {
		t.Fatalf("executed %d of 100 requests after instance change", got)
	}
	if got := len(nc.completed[1]); got != 100 {
		t.Fatalf("client completed %d of 100", got)
	}
}

func TestInstanceChangeNeedsQuorum(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	// A single node voting must not change the view.
	var out Output
	nc.nodes[0].voteInstanceChange(&out, 0, nc.now)
	nc.collect(0, out)
	nc.runFor(20 * time.Millisecond)
	for i, n := range nc.nodes {
		if n.View() != 0 {
			t.Fatalf("node %d moved to view %d on a single vote", i, n.View())
		}
	}
}

// TestInstanceChangeCatchesUpSkippedRounds: node 0 missed two whole
// instance-change rounds (a restart, or a closed NIC) and is still at cpi 0
// when the other three vote in round 2. Their votes count for rounds 0 and 1
// too, so node 0 performs all three instance changes at once and every one of
// its replicas reaches view 3.
func TestInstanceChangeCatchesUpSkippedRounds(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	n := nc.nodes[0]
	var changes []ICEvent
	for _, from := range []types.NodeID{1, 2, 3} {
		ic := &message.InstanceChange{CPI: 2, Node: from}
		authenticate(ic, nc.ks.NodeRing(from), nc.cfg.N)
		changes = append(changes, onNodeMessage(n, ic, from, nc.now).InstanceChanges...)
	}
	if n.CPI() != 3 || n.View() != 3 || len(changes) != 3 {
		t.Fatalf("node 0 at cpi %d, view %d after %d instance changes; want 3, 3, 3", n.CPI(), n.View(), len(changes))
	}
	for i, r := range n.replicas {
		if r.View() != 3 {
			t.Errorf("replica %d in view %d, want 3", i, r.View())
		}
	}
}

func TestFloodingPeerGetsNICClosed(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	attacker := types.NodeID(3)
	var closed bool
	for i := 0; i < FloodThreshold; i++ {
		out := onNodeMessage(nc.nodes[0], &message.Invalid{Node: attacker, Padding: make([]byte, 64)}, attacker, nc.now)
		if len(out.NICCloses) > 0 {
			closed = true
			if out.NICCloses[0].Peer != attacker {
				t.Fatalf("closed NIC of %d, want %d", out.NICCloses[0].Peer, attacker)
			}
		}
	}
	if !closed {
		t.Fatal("flood did not close the attacker's NIC")
	}
	// While closed, even valid-looking traffic from the attacker is dropped
	// without processing.
	out := onNodeMessage(nc.nodes[0], &message.Invalid{Node: attacker}, attacker, nc.now)
	if len(out.NICCloses) != 0 || len(out.NodeMsgs) != 0 {
		t.Fatal("traffic processed during NIC closure")
	}
}

func TestOpenLoopParallelRequests(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	// Two clients, interleaved bursts, no waiting between requests.
	for i := 0; i < 30; i++ {
		nc.sendRequest(1, nil)
		nc.sendRequest(2, nil)
	}
	nc.runFor(300 * time.Millisecond)
	if got := len(nc.completed[1]); got != 30 {
		t.Fatalf("client 1 completed %d, want 30", got)
	}
	if got := len(nc.completed[2]); got != 30 {
		t.Fatalf("client 2 completed %d, want 30", got)
	}
	for i := 1; i < nc.cfg.N; i++ {
		if !sameRefs(nc.executed[0], nc.executed[types.NodeID(i)]) {
			t.Fatalf("node %d executed different sequence", i)
		}
	}
	nc.requireQuiescent()
}

func TestF2EndToEnd(t *testing.T) {
	nc := newNodeCluster(t, 2, nil)
	for i := 0; i < 10; i++ {
		nc.sendRequest(1, nil)
	}
	nc.runFor(200 * time.Millisecond)
	if got := len(nc.completed[1]); got != 10 {
		t.Fatalf("completed %d, want 10", got)
	}
	for i := 1; i < nc.cfg.N; i++ {
		if !sameRefs(nc.executed[0], nc.executed[types.NodeID(i)]) {
			t.Fatalf("node %d executed different sequence", i)
		}
	}
	nc.requireQuiescent()
}

// TestHealAfterDelayRestoresOrdering: SetBehavior(Behavior{}) heals every
// replica, not only those named in an Instance map. Two silent
// master-instance replicas — more than f — leave the master instance without
// a prepare quorum; once both nodes are healed, after a quiet delay, new
// requests must order and execute everywhere without an instance change.
func TestHealAfterDelayRestoresOrdering(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	silent := Behavior{Instance: map[types.InstanceID]pbft.Behavior{
		types.MasterInstance: {Silent: true},
	}}
	nc.nodes[2].SetBehavior(silent)
	nc.nodes[3].SetBehavior(silent)
	nc.runFor(100 * time.Millisecond)
	nc.nodes[2].SetBehavior(Behavior{})
	nc.nodes[3].SetBehavior(Behavior{})

	for i := 0; i < 5; i++ {
		nc.sendRequest(1, nil)
	}
	nc.runFor(200 * time.Millisecond)
	if got := len(nc.completed[1]); got != 5 {
		t.Fatalf("client completed %d of 5 requests after the heal", got)
	}
	for i := range nc.nodes {
		if got := len(nc.executed[types.NodeID(i)]); got != 5 {
			t.Errorf("node %d executed %d of 5 requests after the heal", i, got)
		}
	}
	if len(nc.icEvents) != 0 {
		t.Errorf("healed cluster still changed instance: %+v", nc.icEvents)
	}
	nc.requireQuiescent()
}
