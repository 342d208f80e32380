package core

import (
	"testing"
	"time"

	"rbft/internal/app"
	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/types"
)

var plusOne = []byte{0, 0, 0, 0, 0, 0, 0, 1}

// TestReadLeavesNoWatermarkGap: a speculative read is never ordered, so it
// must not take an ordered id — one read followed by 200 writes leaves every
// node's executed watermark for the client at 200, with nothing parked above
// it (which would also pin the client in the table for ever).
func TestReadLeavesNoWatermarkGap(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	nc.sendFrame(1, frameOf(nc.client(1).NewReadRequest([]byte("GET k"), nc.now)), nc.cfg.AllNodes()...)
	for i := 0; i < 200; i++ {
		nc.sendRequest(1, plusOne)
	}
	nc.runFor(500 * time.Millisecond)
	if got := len(nc.completed[1]); got != 200 {
		t.Fatalf("client completed %d writes, want 200", got)
	}
	for _, n := range nc.nodes {
		cs := n.table.clients[1]
		if cs.execThrough != 200 || len(cs.execRecent) != 0 {
			t.Fatalf("node %d: executed through %d with %d ids parked above, want 200 and none", n.ID(), cs.execThrough, len(cs.execRecent))
		}
	}
	nc.requireQuiescent()
}

// TestMultiPrimaryRetireTouchesOnlyOwningLane: in multi-primary mode the node
// tells only the lane a request was dispatched to that it executed. A record
// of the same ref planted on the other lane — a primary proposing outside
// its partition — is that lane's to retire when it delivers the ref.
func TestMultiPrimaryRetireTouchesOnlyOwningLane(t *testing.T) {
	nc := newNodeCluster(t, 1, multiPrimaryTweak)
	const c = types.ClientID(1)
	owner := types.PartitionOf(c, nc.cfg.Instances())
	other := 1 - owner
	req := nc.client(c).NewRequest(plusOne, nc.now)
	ref := types.RequestRef{Client: c, ID: req.ID, Digest: req.OpDigest()}
	planted := make([]bool, nc.cfg.N)
	for i, n := range nc.nodes {
		if r := n.replicas[other]; !r.IsPrimary() {
			r.AddRequest(ref, nc.now)
			planted[i] = true
		}
	}
	nc.sendFrame(c, frameOf(req), nc.cfg.AllNodes()...)
	nc.runFor(100 * time.Millisecond)
	if got := len(nc.completed[c]); got != 1 {
		t.Fatalf("client completed %d requests, want 1", got)
	}
	for i, n := range nc.nodes {
		if got := laneHolds(n, owner); got != 0 {
			t.Errorf("node %d owning lane holds %d refs after execution", i, got)
		}
		want := 0
		if planted[i] {
			want = 1
		}
		if got, records := laneHolds(n, other), len(n.pending); got != want || records != want {
			t.Errorf("node %d other lane holds %d refs in %d records, want %d in %d", i, got, records, want, want)
		}
	}
}

// laneHolds counts the records of n in which replica inst holds state.
func laneHolds(n *Node, inst types.InstanceID) int {
	held := 0
	for _, r := range n.pending {
		for ; r != nil; r = r.sibling {
			if !r.lanes[inst].Idle() {
				held++
			}
		}
	}
	return held
}

// TestRecordOutlivesExecutionForALaggingLane pins the one lifetime rule of a
// request record: it lives until the request has executed on the node and
// every replica it was dispatched to has delivered and retired it. With the
// backup lane's COMMITs held back from one node, the request executes there
// through the master lane, and its record stays — its body dropped — for the
// backup replica that still holds the ref; once that replica delivers it,
// the record goes.
func TestRecordOutlivesExecutionForALaggingLane(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	victim := (nc.cfg.PrimaryOf(0, 1) + 1) % types.NodeID(nc.cfg.N)
	nc.hold = func(ev clusterEvent) bool {
		if !ev.nodeDst || ev.isClient || ev.toNode != victim {
			return false
		}
		msg, err := message.Decode(ev.frame)
		if err != nil {
			t.Fatal(err)
		}
		c, ok := msg.(*message.Commit)
		return ok && c.Instance == 1
	}
	req := nc.sendRequest(1, plusOne)
	nc.runFor(100 * time.Millisecond)
	n := nc.nodes[victim]
	if got := len(nc.executed[victim]); got != 1 || len(nc.held) == 0 {
		t.Fatalf("victim executed %d requests with %d frames held, want 1 and some", got, len(nc.held))
	}
	r := n.pending[types.RequestKey{Client: 1, ID: req.ID}]
	if len(n.pending) != 1 || r == nil || !r.executed || r.stored || r.op != nil || !r.lanes[0].Idle() || r.lanes[1].Idle() {
		t.Fatalf("after execution the victim holds %d keys; want one executed, body-less record held by lane 1 alone", len(n.pending))
	}
	nc.hold = nil
	nc.queue, nc.held = append(nc.queue, nc.held...), nil
	nc.runFor(100 * time.Millisecond)
	nc.requireQuiescent()
}

// TestRestartKeepsWatermarkNotTables: a node rebuilt from its WAL starts with
// empty request tables and its clients' executed watermarks. Catching up, its
// replicas skip every ref it executed before the crash instead of ordering
// it again, and order only the new requests.
func TestRestartKeepsWatermarkNotTables(t *testing.T) {
	tweak := func(c *Config) {
		c.Durable = true
		c.CheckpointInterval = 2
	}
	nc := newNodeCluster(t, 1, tweak)
	const victim = types.NodeID(2)
	for i := 0; i < 20; i++ {
		nc.sendRequest(1, plusOne)
	}
	nc.runFor(200 * time.Millisecond)
	executed := nc.executed[victim]
	if len(executed) != 20 {
		t.Fatalf("victim executed %d requests before the crash, want 20", len(executed))
	}

	counter := app.NewCounter()
	restored := New(durableConfig(nc, victim, counter, tweak), nc.ks.NodeRing(victim))
	if _, err := restored.Restore(replayOf(nc.records[victim])); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := len(restored.pending); got != 0 {
		t.Fatalf("restored node holds records under %d request keys", got)
	}
	for _, ref := range executed {
		if !restored.table.executed(ref) {
			t.Fatalf("restored node does not know %v executed", ref)
		}
	}

	ordered := make(orderedRefs, len(restored.replicas))
	restored.SetTracer(ordered)
	nc.nodes[victim], nc.apps[victim] = restored, counter
	for i := 0; i < 10; i++ {
		nc.sendRequest(1, plusOne)
	}
	nc.runFor(300 * time.Millisecond)
	if total := counter.Total(1); total != 30 {
		t.Fatalf("restored counter = %d, want 30: each request executed exactly once", total)
	}
	for i, got := range ordered {
		if got != 10 {
			t.Errorf("restored replica %d ordered %d refs since the restart, want the 10 new ones", i, got)
		}
	}
	nc.requireQuiescent()
}

// orderedRefs counts, per instance, the refs of the batches a node's replicas
// deliver to it (obs.EvOrdered), after pbft drops the refs the node executed.
type orderedRefs []int

func (o orderedRefs) Enabled() bool { return true }

func (o orderedRefs) Trace(ev obs.Event) {
	if ev.Type == obs.EvOrdered {
		o[ev.Instance] += ev.Count
	}
}
