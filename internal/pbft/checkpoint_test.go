package pbft

import (
	"testing"
	"time"

	"rbft/internal/message"
	"rbft/internal/types"
)

// TestLogDigestChainsAgree: after ordering, every replica's cumulative
// ordering-log digest is identical — the property checkpoints certify.
func TestLogDigestChainsAgree(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) {
		c.BatchSize = 4
		c.CheckpointInterval = 4
	})
	for i := 0; i < 32; i++ {
		tc.addRequest(ref(types.ClientID(i%3), types.RequestID(i)))
	}
	want := tc.replicas[0].logDigest
	if want.IsZero() {
		t.Fatal("no deliveries recorded in the digest chain")
	}
	for n := 1; n < tc.cfg.N; n++ {
		if tc.replicas[n].logDigest != want {
			t.Fatalf("node %d log digest diverges", n)
		}
	}
}

// TestCheckpointsStabiliseAfterBatchDeliveredInTwoViews: nodes 2 and 3
// commit a batch in view 0 while nodes 0 and 1 only prepare it. NEW-VIEW
// re-issues it, node 0 (the view-0 primary, whose view-0 PREPARE 2 and 3 never
// logged) prepares it in view 1 with them, and 0 and 1 commit it there. The
// log digests must still agree, so checkpoints keep stabilising and the
// view-1 primary never stalls at its high watermark.
func TestCheckpointsStabiliseAfterBatchDeliveredInTwoViews(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) {
		c.BatchSize = 1
		c.CheckpointInterval = 2
		c.WatermarkWindow = 4
	})
	tc.drop = func(from, to types.NodeID, m message.Message) bool {
		return m.MsgType() == message.TypeCommit && to < 2
	}
	tc.addRequest(ref(0, 0))
	for n, want := range []int{0, 0, 1, 1} {
		if got := len(orderedRefs(tc.delivered[types.NodeID(n)])); got != want {
			t.Fatalf("node %d delivered %d refs in view 0, want %d", n, got, want)
		}
	}
	tc.drop = nil
	tc.startViewChange(1)
	for i := 1; i < 20; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	want := tc.replicas[0].logDigest
	for n, r := range tc.replicas {
		if got := len(orderedRefs(tc.delivered[types.NodeID(n)])); got != 20 {
			t.Fatalf("node %d delivered %d refs, want 20", n, got)
		}
		if r.logDigest != want {
			t.Fatalf("node %d log digest diverges", n)
		}
		if r.stableSeq != 20 {
			t.Fatalf("node %d stable at %d, want 20", n, r.stableSeq)
		}
	}
}

// TestCheckpointWithWrongDigestDoesNotStabilize: 2f+1 matching digests are
// required; a faulty node's bogus checkpoint cannot force stabilisation.
func TestCheckpointWithWrongDigestDoesNotStabilize(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) {
		c.BatchSize = 1
		c.CheckpointInterval = 2
	})
	// Drop all legitimate checkpoint traffic so stability depends on what we
	// inject.
	tc.drop = func(from, to types.NodeID, m message.Message) bool {
		return m.MsgType() == message.TypeCheckpoint
	}
	for i := 0; i < 4; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	victim := tc.replicas[1]
	if victim.stableSeq != 0 {
		t.Fatalf("stableSeq = %d with checkpoints dropped", victim.stableSeq)
	}
	// Inject two forged checkpoints with a wrong digest (with the victim's
	// own correct one, that is 3 votes — but only 1 matching the victim's).
	for _, from := range []types.NodeID{2, 3} {
		cp := &message.Checkpoint{Instance: 0, Seq: 2, Digest: types.Digest{0xba, 0xad}, Node: from}
		if _, err := victim.OnMessage(cp, tc.now); err != nil {
			t.Fatal(err)
		}
	}
	if victim.stableSeq != 0 {
		t.Fatal("forged digests stabilised a checkpoint")
	}
	// Matching digests from two peers (plus our own) do stabilise.
	want := victim.checkpoints[2][victim.cfg.Node]
	for _, from := range []types.NodeID{2, 3} {
		cp := &message.Checkpoint{Instance: 0, Seq: 2, Digest: want, Node: from}
		if _, err := victim.OnMessage(cp, tc.now); err != nil {
			t.Fatal(err)
		}
	}
	if victim.stableSeq != 2 {
		t.Fatalf("stableSeq = %d after a valid quorum, want 2", victim.stableSeq)
	}
}

// TestStaleCheckpointIgnored: checkpoints at or below the stable sequence
// are no-ops.
func TestStaleCheckpointIgnored(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) {
		c.BatchSize = 1
		c.CheckpointInterval = 2
	})
	for i := 0; i < 8; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	in := tc.replicas[0]
	stable := in.stableSeq
	if stable == 0 {
		t.Fatal("no stable checkpoint formed")
	}
	cp := &message.Checkpoint{Instance: 0, Seq: stable, Digest: types.Digest{1}, Node: 2}
	if _, err := in.OnMessage(cp, tc.now); err != nil {
		t.Fatal(err)
	}
	if in.stableSeq != stable {
		t.Fatal("stale checkpoint moved the stable point")
	}
}

// TestProposeRatePacing: a throttled primary's delivery rate tracks the
// configured rate.
func TestProposeRatePacing(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) { c.BatchSize = 8 })
	primary := tc.replicas[0].Primary()
	tc.replicas[primary].SetBehavior(Behavior{ProposeRate: 1000}) // 1k refs/s
	start := tc.now
	for i := 0; i < 100; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	elapsed := tc.now.Sub(start)
	// 100 refs at 1000/s ≈ 100ms (bucket bursts allow some slack).
	if elapsed < 60*time.Millisecond || elapsed > 200*time.Millisecond {
		t.Fatalf("100 refs at 1000/s took %v, want ~100ms", elapsed)
	}
	if got := len(orderedRefs(tc.delivered[0])); got != 100 {
		t.Fatalf("delivered %d refs, want all 100 (throttled, not dropped)", got)
	}
}
