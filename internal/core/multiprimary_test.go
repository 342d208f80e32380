package core

import (
	"slices"
	"testing"
	"time"

	"rbft/internal/app"
	"rbft/internal/client"
	"rbft/internal/pbft"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// multiPrimaryTweak switches a test cluster to multi-primary ordering.
func multiPrimaryTweak(c *Config) { c.OrderingMode = types.OrderingMultiPrimary }

// TestMultiPrimaryEndToEnd: with clients on both partitions, every request
// completes, every node executes the identical merged sequence, and both
// lanes (not just the master) contribute ordered batches to it.
func TestMultiPrimaryEndToEnd(t *testing.T) {
	nc := newNodeCluster(t, 1, multiPrimaryTweak)
	// Clients 1..4 split across the two lanes (PartitionOf: odd ids on lane
	// 1, even on lane 0).
	for i := 0; i < 10; i++ {
		for c := types.ClientID(1); c <= 4; c++ {
			nc.sendRequest(c, []byte{0, 0, 0, 0, 0, 0, 0, 1})
		}
	}
	nc.runFor(300 * time.Millisecond)

	for c := types.ClientID(1); c <= 4; c++ {
		if got := len(nc.completed[c]); got != 10 {
			t.Fatalf("client %d completed %d requests, want 10", c, got)
		}
	}
	if got := len(nc.executed[0]); got != 40 {
		t.Fatalf("node 0 executed %d requests, want 40", got)
	}
	for i := 1; i < nc.cfg.N; i++ {
		if !sameRefs(nc.executed[0], nc.executed[types.NodeID(i)]) {
			t.Fatalf("node %d executed a different merged sequence", i)
		}
		if nc.apps[i].Fingerprint() != nc.apps[0].Fingerprint() {
			t.Fatalf("node %d execution fingerprint differs", i)
		}
	}
	// Both partitions were ordered by their own lane: every merge cursor
	// advanced past genesis.
	for i, n := range nc.nodes {
		cursors := mergeCursors(n)
		if len(cursors) != 2 {
			t.Fatalf("node %d has %d merge cursors, want 2", i, len(cursors))
		}
		for lane, c := range cursors {
			if c < 2 {
				t.Fatalf("node %d lane %d cursor = %d: lane never contributed a batch", i, lane, c)
			}
		}
	}
	nc.requireQuiescent()
}

// TestMultiPrimaryBackupLaneEquivocationDedup: an equivocating client whose
// partition lands on a backup lane signs two different bodies under one
// request id. Only the first body in the lane's agreed order executes, every
// node picks the same one, and the executed record is attributed to the
// backup lane.
func TestMultiPrimaryBackupLaneEquivocationDedup(t *testing.T) {
	nc := newNodeCluster(t, 1, func(c *Config) {
		multiPrimaryTweak(c)
		c.Durable = true
	})
	// Client 1 is odd, so types.PartitionOf places it on lane 1 — a backup
	// lane whose order master-only mode would never execute.
	if lane := types.PartitionOf(1, nc.cfg.Instances()); lane != 1 {
		t.Fatalf("client 1 partitions to lane %d, test expects 1", lane)
	}
	reqA := nc.sendRequest(1, []byte{0, 0, 0, 0, 0, 0, 0, 2})
	// A second, validly signed body under the same request id: a fresh
	// client state machine for the same identity produces id 1 again.
	evil := client.New(client.Config{Cluster: nc.cfg, ID: 1}, nc.ks.ClientRing(1))
	reqB := evil.NewRequest([]byte{0, 0, 0, 0, 0, 0, 0, 9}, nc.now)
	if reqA.ID != reqB.ID {
		t.Fatalf("equivocation ids diverged: %d vs %d", reqA.ID, reqB.ID)
	}
	if reqA.OpDigest() == reqB.OpDigest() {
		t.Fatal("equivocation bodies collide")
	}
	for _, n := range nc.cfg.AllNodes() {
		nc.queue = append(nc.queue, clusterEvent{isClient: true, fromClient: 1, toNode: n, nodeDst: true, frame: frameOf(reqB)})
	}
	nc.runFor(200 * time.Millisecond)

	for i := 0; i < nc.cfg.N; i++ {
		if got := len(nc.executed[types.NodeID(i)]); got != 1 {
			t.Fatalf("node %d executed %d bodies for the equivocated id, want 1", i, got)
		}
		if !sameRefs(nc.executed[0], nc.executed[types.NodeID(i)]) {
			t.Fatalf("node %d executed a different body than node 0", i)
		}
		if nc.apps[i].Fingerprint() != nc.apps[0].Fingerprint() {
			t.Fatalf("node %d fingerprint differs: nodes disagree on the surviving body", i)
		}
	}
	// The surviving execution was released by the client's owning backup
	// lane, not the master.
	for _, rec := range nc.records[0] {
		if rec.Kind == wal.KindExecuted && rec.Instance != 1 {
			t.Fatalf("executed record attributed to lane %d, want 1", rec.Instance)
		}
	}
	nc.requireQuiescent()
}

// TestMultiPrimaryBackupLaneReplyCacheEviction: reply-cache bounds and
// executed-set eviction behave identically when the executing order comes
// from a backup lane's partition.
func TestMultiPrimaryBackupLaneReplyCacheEviction(t *testing.T) {
	nc := newNodeCluster(t, 1, func(c *Config) {
		multiPrimaryTweak(c)
		c.Durable = true
	})
	const requests = ReplyCacheSize + 1
	for i := 1; i <= requests; i++ {
		nc.sendRequest(1, []byte{0, 0, 0, 0, 0, 0, 0, 1})
	}
	nc.runFor(200 * time.Millisecond)

	n := nc.nodes[0]
	if got := len(nc.executed[0]); got != requests {
		t.Fatalf("node 0 executed %d requests, want %d", got, requests)
	}
	cs := n.client(1, nc.now)
	requireCachedFrom(t, cs, 2)
	if !cs.isExecuted(1) {
		t.Fatal("executed watermark forgot the request whose reply was evicted")
	}
	// All the executions were released by the backup lane owning the
	// client's partition.
	executedRecords := 0
	for _, rec := range nc.records[0] {
		if rec.Kind == wal.KindExecuted {
			executedRecords++
			if rec.Instance != 1 {
				t.Fatalf("executed record attributed to lane %d, want 1", rec.Instance)
			}
		}
	}
	if executedRecords != requests {
		t.Fatalf("logged %d executed records, want %d", executedRecords, requests)
	}
}

// TestMultiPrimarySlowPartitionOwnerTriggersInstanceChange: a lane primary
// that silently drops its partition is caught by the per-lane Δ test (its
// partition's completion ratio collapses while the other lane's stays at 1),
// the resulting instance change rotates every lane's primary off the faulty
// node, and the starved partition then completes.
func TestMultiPrimarySlowPartitionOwnerTriggersInstanceChange(t *testing.T) {
	nc := newNodeCluster(t, 1, multiPrimaryTweak)
	// In view 0, lane 1's primary is node 1 (PrimaryOf(0, 1)).
	faulty := nc.nodes[0].replicas[1].Primary()
	nc.nodes[faulty].SetBehavior(Behavior{
		Instance: map[types.InstanceID]pbft.Behavior{
			1: {Silent: true},
		},
	})
	oldView := nc.nodes[0].View()

	// Sustained load on both partitions so the per-lane ratios are
	// comparable: client 2 on lane 0, client 1 starved on lane 1.
	for round := 0; round < 10; round++ {
		for i := 0; i < 10; i++ {
			nc.sendRequest(1, nil)
			nc.sendRequest(2, nil)
		}
		nc.runFor(60 * time.Millisecond)
	}

	if len(nc.icEvents) == 0 {
		t.Fatal("no instance change despite a silent partition owner")
	}
	for i, n := range nc.nodes {
		if types.NodeID(i) == faulty {
			continue
		}
		if n.View() == oldView {
			t.Fatalf("node %d still in view %d", i, oldView)
		}
		if n.replicas[1].Primary() == faulty {
			t.Fatalf("lane 1's primary did not move off node %d", faulty)
		}
	}
	// Liveness restored for the starved partition.
	nc.runFor(500 * time.Millisecond)
	if got := len(nc.completed[1]); got != 100 {
		t.Fatalf("starved partition's client completed %d of 100 after instance change", got)
	}
	if got := len(nc.completed[2]); got != 100 {
		t.Fatalf("healthy partition's client completed %d of 100", got)
	}
}

// TestMultiPrimaryDurableRestartRecoversCursors: a crashed node rebuilt from
// its WAL records resumes with the same per-lane merge cursors it had, never
// re-executes, and keeps pace with the cluster afterwards.
func TestMultiPrimaryDurableRestartRecoversCursors(t *testing.T) {
	nc := newNodeCluster(t, 1, func(c *Config) {
		multiPrimaryTweak(c)
		c.Durable = true
		c.CheckpointInterval = 2
	})
	const victim = types.NodeID(2)

	for i := 0; i < 10; i++ {
		nc.sendRequest(1, []byte{0, 0, 0, 0, 0, 0, 0, 2})
		nc.sendRequest(2, []byte{0, 0, 0, 0, 0, 0, 0, 3})
	}
	nc.runFor(300 * time.Millisecond)
	if got := len(nc.completed[1]); got != 10 {
		t.Fatalf("client 1 completed %d before crash, want 10", got)
	}
	if got := len(nc.completed[2]); got != 10 {
		t.Fatalf("client 2 completed %d before crash, want 10", got)
	}

	recs := nc.records[victim]
	merged := 0
	for _, r := range recs {
		if r.Kind == wal.KindMerged {
			merged++
		}
	}
	if merged == 0 {
		t.Fatal("durable multi-primary node logged no merged-cursor records")
	}

	oldCursors := mergeCursors(nc.nodes[victim])
	oldFP := nc.apps[victim].Fingerprint()
	counter := app.NewCounter()
	restored := New(durableConfig(nc, victim, counter, func(c *Config) {
		multiPrimaryTweak(c)
		c.CheckpointInterval = 2
	}), nc.ks.NodeRing(victim))
	stats, err := restored.Restore(replayOf(recs))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if stats.Executed != len(nc.executed[victim]) {
		t.Fatalf("Restore redid %d executions, want %d", stats.Executed, len(nc.executed[victim]))
	}
	if counter.Fingerprint() != oldFP {
		t.Fatal("restored application fingerprint differs from pre-crash state")
	}
	got := mergeCursors(restored)
	if len(got) != len(oldCursors) {
		t.Fatalf("restored %d cursors, want %d", len(got), len(oldCursors))
	}
	for lane := range got {
		if got[lane] != oldCursors[lane] {
			t.Fatalf("lane %d cursor restored to %d, want %d (cursors %v vs %v)",
				lane, got[lane], oldCursors[lane], got, oldCursors)
		}
	}

	// Rejoin and keep going: no double execution, no skipped partition.
	nc.nodes[victim] = restored
	nc.apps[victim] = counter
	for i := 0; i < 5; i++ {
		nc.sendRequest(1, []byte{0, 0, 0, 0, 0, 0, 0, 2})
		nc.sendRequest(2, []byte{0, 0, 0, 0, 0, 0, 0, 3})
	}
	nc.runFor(400 * time.Millisecond)
	if got := len(nc.completed[1]); got != 15 {
		t.Fatalf("client 1 completed %d after restart, want 15", got)
	}
	if got := len(nc.completed[2]); got != 15 {
		t.Fatalf("client 2 completed %d after restart, want 15", got)
	}
	if total := counter.Total(1); total != 30 {
		t.Fatalf("restored node counter total for client 1 = %d, want 30 (each request exactly once)", total)
	}
	for i := 0; i < nc.cfg.N; i++ {
		if nc.apps[i].Fingerprint() != nc.apps[0].Fingerprint() {
			t.Fatalf("node %d fingerprint diverged after restart", i)
		}
	}
	nc.requireQuiescent()
}

// TestMasterOnlyHasNoMergeState: the default mode must not grow any
// multi-primary machinery — no merge, no cursors, no lane records.
func TestMasterOnlyHasNoMergeState(t *testing.T) {
	nc := newNodeCluster(t, 1, func(c *Config) { c.Durable = true })
	nc.sendRequest(1, nil)
	nc.runFor(100 * time.Millisecond)
	if cursors := mergeCursors(nc.nodes[0]); cursors != nil {
		t.Fatalf("master-only node has merge cursors %v", cursors)
	}
	for _, rec := range nc.records[0] {
		if rec.Kind == wal.KindMerged {
			t.Fatal("master-only node journalled a merged-cursor record")
		}
		if rec.Kind == wal.KindExecuted && rec.Instance != types.MasterInstance {
			t.Fatalf("master-only executed record attributed to lane %d", rec.Instance)
		}
	}
}

// mergeCursors returns a copy of n's per-lane merge cursors, nil in
// master-only mode.
func mergeCursors(n *Node) []types.SeqNum {
	if n.merge == nil {
		return nil
	}
	return slices.Clone(n.merge.next)
}
