package pbft

import (
	"testing"

	"rbft/internal/message"
	"rbft/internal/types"
)

// hasPrepare reports whether out sends a PREPARE.
func hasPrepare(out Output) bool {
	for _, m := range out.Msgs {
		if m.Msg.MsgType() == message.TypePrepare {
			return true
		}
	}
	return false
}

// backupOf returns a node that is a backup of instance 0 in every given view.
func backupOf(tc *testCluster, views ...types.View) types.NodeID {
	for n := 0; n < tc.cfg.N; n++ {
		backup := true
		for _, v := range views {
			backup = backup && tc.cfg.PrimaryOf(v, 0) != types.NodeID(n)
		}
		if backup {
			return types.NodeID(n)
		}
	}
	tc.t.Fatal("no common backup")
	return 0
}

func requireNoRecords(t *testing.T, tc *testCluster) {
	t.Helper()
	for n, r := range tc.replicas {
		if got := records(r); got != 0 {
			t.Errorf("node %d holds %d request records, want 0", n, got)
		}
	}
}

// TestStaleWaiterDoesNotReleaseNextViewPrepare: a view-0 PRE-PREPARE that
// waits on an unknown ref X is dropped by the view change, and its waiter
// with it. When X becomes known later, it must not release the view-1
// proposal at the same sequence, which waits on another unknown ref Y.
func TestStaleWaiterDoesNotReleaseNextViewPrepare(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	b := backupOf(tc, 0, 1)
	backup := tc.replicas[b]
	x, y := ref(1, 1), ref(2, 1)
	pp0 := &message.PrePrepare{Instance: 0, View: 0, Seq: 1, Batch: []types.RequestRef{x}, Node: tc.cfg.PrimaryOf(0, 0)}
	if out, err := backup.OnMessage(pp0, tc.now); err != nil || hasPrepare(out) {
		t.Fatalf("view-0 PRE-PREPARE: err %v, PREPARE sent %v", err, hasPrepare(out))
	}
	tc.startViewChange(1)
	if backup.View() != 1 || backup.inViewChange {
		t.Fatalf("backup view %d, in view change %v", backup.View(), backup.inViewChange)
	}
	pp1 := &message.PrePrepare{Instance: 0, View: 1, Seq: 1, Batch: []types.RequestRef{y}, Node: tc.cfg.PrimaryOf(1, 0)}
	if out, err := backup.OnMessage(pp1, tc.now); err != nil || hasPrepare(out) {
		t.Fatalf("view-1 PRE-PREPARE: err %v, PREPARE sent %v", err, hasPrepare(out))
	}
	if hasPrepare(backup.AddRequest(x, tc.now)) {
		t.Fatal("X becoming known released the PREPARE of a proposal waiting on Y")
	}
	if !hasPrepare(backup.AddRequest(y, tc.now)) {
		t.Fatal("Y becoming known did not release its proposal's PREPARE")
	}
}

// TestViewChangeDropsStaleWaiters: PRE-PREPAREs naming refs no node knows
// leave records on every backup; the view change that drops the proposals
// drops the records too.
func TestViewChangeDropsStaleWaiters(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	p0 := tc.cfg.PrimaryOf(0, 0)
	for seq := 1; seq <= 50; seq++ {
		batch := make([]types.RequestRef, 8)
		for i := range batch {
			batch[i] = ref(types.ClientID(seq), types.RequestID(i))
		}
		pp := &message.PrePrepare{Instance: 0, View: 0, Seq: types.SeqNum(seq), Batch: batch, Node: p0}
		for n, r := range tc.replicas {
			if types.NodeID(n) != p0 {
				if _, err := r.OnMessage(pp, tc.now); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for n, r := range tc.replicas {
		if types.NodeID(n) != p0 && records(r) != 400 {
			t.Fatalf("backup %d holds %d records before the view change, want 400", n, records(r))
		}
	}
	tc.startViewChange(1)
	requireNoRecords(t, tc)
}

// TestRequestTableBoundedByInFlight: with its node's signal a replica holds a
// record only while the request is in flight — never more than the requests
// added and not yet executed — across 10k requests. Without the signal it
// remembers every delivered ref for the retention window.
func TestRequestTableBoundedByInFlight(t *testing.T) {
	const total, burst = 10_000, 50
	window := func(c *Config) { c.CheckpointInterval, c.WatermarkWindow = 16, 64 }
	run := func(signal bool, total int) *testCluster {
		tc := newTestCluster(t, 1, window)
		if signal {
			tc.nodeSignal()
		}
		for i := 0; i < total; i += burst {
			for j := i; j < i+burst; j++ {
				r := ref(types.ClientID(j%7), types.RequestID(j))
				for n, rep := range tc.replicas {
					tc.collect(types.NodeID(n), rep.AddRequest(r, tc.now))
				}
			}
			tc.run()
			if signal {
				requireNoRecords(t, tc)
			}
		}
		for n := range tc.replicas {
			if got := len(orderedRefs(tc.delivered[types.NodeID(n)])); got != total {
				t.Fatalf("node %d delivered %d refs, want %d", n, got, total)
			}
		}
		return tc
	}
	if tc := run(true, total); tc.peak > burst {
		t.Fatalf("a replica held %d request records with at most %d requests in flight", tc.peak, burst)
	}
	tc := run(false, 2_000)
	if retention := int(2 * 64 * 8); tc.peak <= burst || tc.peak > retention+burst {
		t.Fatalf("without its node's signal a replica held at most %d records, want (%d, %d]", tc.peak, burst, retention+burst)
	}
}

// TestLaggingReplicaKeepsRecordUntilDelivery: a replica whose node executed a
// ref it has not delivered yet keeps the record, and still delivers the ref.
func TestLaggingReplicaKeepsRecordUntilDelivery(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	tc.nodeSignal()
	lag := backupOf(tc, 0)
	var held []netMsg
	tc.drop = func(from, to types.NodeID, m message.Message) bool {
		if to == lag && m.MsgType() == message.TypeCommit {
			held = append(held, netMsg{from: from, to: to, msg: m})
			return true
		}
		return false
	}
	x := ref(1, 1)
	tc.addRequest(x)
	if len(tc.delivered[lag]) != 0 {
		t.Fatal("the lagging replica delivered without COMMITs")
	}
	// Its node executed x through another lane.
	tc.stores[lag].execute(x)
	if got := records(tc.replicas[lag]); got != 1 {
		t.Fatalf("lagging replica holds %d records before delivering, want 1", got)
	}
	tc.drop = nil
	tc.queue = append(tc.queue, held...)
	tc.run()
	if got := orderedRefs(tc.delivered[lag]); len(got) != 1 || got[0] != x {
		t.Fatalf("lagging replica delivered %v, want [x]", got)
	}
	requireNoRecords(t, tc)
}

// TestLaggingPrimaryReproposalDoesNotStall: the view-1 primary missed view 0
// entirely, so it re-proposes the refs it knows and has not delivered. The
// others executed and forgot them; their node's decided answer lets them
// prepare without waiting, and deliver nothing twice. (The window is one
// checkpoint wider than the default: the new primary fetches seqs 1-4, but
// delivers seq 5 in view 1 where the others delivered it in view 0, so its
// log digest forks there and it does not stabilize again.)
func TestLaggingPrimaryReproposalDoesNotStall(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) {
		c.BatchSize = 1
		c.CheckpointInterval = 2
		c.WatermarkWindow = 10
	})
	tc.nodeSignal()
	p1 := tc.cfg.PrimaryOf(1, 0)
	tc.drop = func(from, to types.NodeID, m message.Message) bool { return to == p1 }
	var want []types.RequestRef
	for i := 1; i <= 5; i++ {
		want = append(want, ref(0, types.RequestID(i)))
		tc.addRequest(want[i-1])
	}
	if len(tc.delivered[p1]) != 0 || tc.replicas[backupOf(tc, 1)].stableSeq < 4 {
		t.Fatal("setup: the new primary must lag a stable checkpoint behind")
	}
	tc.drop = nil
	tc.startViewChange(1)
	want = append(want, ref(0, 6))
	tc.addRequest(want[5])
	for n := range tc.replicas {
		if got := orderedRefs(tc.delivered[types.NodeID(n)]); !sameOrder(got, want) {
			t.Fatalf("node %d delivered %v, want %v", n, got, want)
		}
	}
	requireNoRecords(t, tc)
}

// TestFetchDeliversUnknownRef: a batch adopted through FETCH is delivered
// whole, refs the node never collected PROPAGATEs for included.
func TestFetchDeliversUnknownRef(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) {
		c.BatchSize = 1
		c.CheckpointInterval = 4
		c.WatermarkWindow = 64
	})
	tc.nodeSignal()
	victim := backupOf(tc, 0)
	tc.drop = func(from, to types.NodeID, m message.Message) bool { return to == victim }
	for i := 0; i < 8; i++ {
		for n, r := range tc.replicas {
			if types.NodeID(n) != victim {
				tc.collect(types.NodeID(n), r.AddRequest(ref(0, types.RequestID(i)), tc.now))
			}
		}
		tc.run()
	}
	tc.drop = nil
	for i := 8; i < 16; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	want := orderedRefs(tc.delivered[0])
	if got := orderedRefs(tc.delivered[victim]); len(want) != 16 || !sameOrder(got, want) {
		t.Fatalf("victim delivered %d refs, node 0 %d; want the same 16", len(got), len(want))
	}
	requireNoRecords(t, tc)
}

// TestRefInTwoPrePreparesDeliveredOnce: a ref named by two accepted
// PRE-PREPAREs is delivered at the first, with or without the node's signal.
func TestRefInTwoPrePreparesDeliveredOnce(t *testing.T) {
	for _, signal := range []bool{false, true} {
		tc := newTestCluster(t, 1, nil)
		if signal {
			tc.nodeSignal()
		}
		p := tc.cfg.PrimaryOf(0, 0)
		x, y := ref(1, 1), ref(2, 1)
		pps := []*message.PrePrepare{
			{Instance: 0, View: 0, Seq: 1, Batch: []types.RequestRef{x}, Node: p},
			{Instance: 0, View: 0, Seq: 2, Batch: []types.RequestRef{x, y}, Node: p},
		}
		for n, r := range tc.replicas {
			if types.NodeID(n) == p {
				continue
			}
			for _, pp := range pps {
				out, err := r.OnMessage(pp, tc.now)
				if err != nil {
					t.Fatal(err)
				}
				tc.collect(types.NodeID(n), out)
			}
			tc.collect(types.NodeID(n), r.AddRequest(x, tc.now))
			tc.collect(types.NodeID(n), r.AddRequest(y, tc.now))
		}
		tc.run()
		for n := range tc.replicas {
			if types.NodeID(n) == p {
				continue
			}
			if got := orderedRefs(tc.delivered[types.NodeID(n)]); !sameOrder(got, []types.RequestRef{x, y}) {
				t.Fatalf("signal %v: node %d delivered %v, want [x y]", signal, n, got)
			}
		}
	}
}

// TestDecidedSiblingNeitherQueuedNorDelivered: once a (client, id) executed,
// an equivocated sibling digest under it is decided too. The primary does
// not queue it, backups do not wait on it, and no replica delivers it.
func TestDecidedSiblingNeitherQueuedNorDelivered(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	tc.nodeSignal()
	x := ref(1, 1)
	tc.addRequest(x)
	sibling := x
	sibling.Digest[0] ^= 0xff
	tc.addRequest(sibling)
	requireNoRecords(t, tc)
	p := tc.cfg.PrimaryOf(0, 0)
	pp := &message.PrePrepare{Instance: 0, View: 0, Seq: 2, Batch: []types.RequestRef{sibling}, Node: p}
	for n, r := range tc.replicas {
		out, err := r.OnMessage(pp, tc.now)
		if err != nil {
			t.Fatal(err)
		}
		if types.NodeID(n) != p && !hasPrepare(out) {
			t.Fatalf("backup %d waits on a decided sibling", n)
		}
		tc.collect(types.NodeID(n), out)
	}
	tc.run()
	for n, r := range tc.replicas {
		if got := orderedRefs(tc.delivered[types.NodeID(n)]); r.LastDelivered() != 2 || !sameOrder(got, []types.RequestRef{x}) {
			t.Fatalf("node %d delivered %v through seq %d, want [x] through 2", n, got, r.LastDelivered())
		}
	}
	requireNoRecords(t, tc)
}

// TestBatchChangedAfterPreverifyIsNotPrepared: a replica accepts a
// PRE-PREPARE under the digest its MAC was checked against, reused rather
// than hashed again — bound to the header and Batch that were hashed. A
// Batch replaced after preverification is hashed afresh, so the replica
// prepares what it holds, never the MAC-checked digest over other refs, and
// the other backups' PREPAREs for the proposal do not prepare it.
func TestBatchChangedAfterPreverifyIsNotPrepared(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	p, b := tc.cfg.PrimaryOf(0, 0), backupOf(tc, 0)
	x, y := ref(1, 1), ref(2, 1)
	sent := &message.PrePrepare{Instance: 0, View: 0, Seq: 1, Batch: []types.RequestRef{x}, Node: p}
	sent.Auth = tc.ks.NodeRing(p).AuthenticatorForNodes(tc.cfg.N, sent.Body())
	macd := sent.BatchDigest()
	pre := message.NewPreverifier(tc.ks.NodeRing(b), b, tc.cfg, message.NewVerifyCache())
	v, err := pre.PreverifyNodeFrame(sent.Marshal(nil), p)
	if err != nil {
		t.Fatal(err)
	}
	pp := v.Msg.(*message.PrePrepare)
	pp.Batch = []types.RequestRef{y}
	backup := tc.replicas[b]
	backup.AddRequest(y, tc.now)
	out, err := backup.OnMessage(pp, tc.now)
	if err != nil {
		t.Fatal(err)
	}
	s := backup.at(1)
	for _, m := range out.Msgs {
		if prep, ok := m.Msg.(*message.Prepare); ok && prep.Digest == macd {
			t.Fatal("the backup vouched for the MAC-checked digest over a changed batch")
		}
	}
	if s.digest == macd || s.digest != (&message.PrePrepare{Instance: 0, View: 0, Seq: 1, Batch: pp.Batch}).BatchDigest() {
		t.Fatal("the slot does not hold the digest of the batch it holds")
	}
	for n := range tc.replicas {
		if id := types.NodeID(n); id != p && id != b {
			prep := &message.Prepare{Instance: 0, View: 0, Seq: 1, Digest: macd, Node: id}
			if _, err := backup.OnMessage(prep, tc.now); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.sentComm {
		t.Fatal("the changed batch was prepared on the other backups' PREPAREs for the sent one")
	}
}

// TestExecutedBatchDropsItsRecords: a delivered batch keeps the records its
// proposal resolved only while one of its entries waits for retention. Under
// a node, which retires the entries as it executes the batch, the next
// delivery drops them; without one, nothing is retired before retention and
// they stay.
func TestExecutedBatchDropsItsRecords(t *testing.T) {
	for _, signal := range []bool{false, true} {
		tc := newTestCluster(t, 1, func(c *Config) { c.BatchSize = 1 })
		if signal {
			tc.nodeSignal()
		}
		for i := 1; i <= 3; i++ {
			tc.addRequest(ref(1, types.RequestID(i)))
		}
		for n, r := range tc.replicas {
			if r.LastDelivered() != 3 {
				t.Fatalf("signal %v: node %d delivered through %d, want 3", signal, n, r.LastDelivered())
			}
			for seq := types.SeqNum(1); seq <= 2; seq++ {
				if kept := len(r.at(seq).recs); (kept == 0) != signal {
					t.Errorf("signal %v: node %d keeps %d records at delivered seq %d", signal, n, kept, seq)
				}
			}
			if len(r.at(3).recs) != 1 {
				t.Errorf("signal %v: node %d dropped the records of its last delivery", signal, n)
			}
		}
	}
}
