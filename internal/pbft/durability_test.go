package pbft

import (
	"testing"
	"time"

	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/types"
	"rbft/internal/wal"
)

func durableInstance(t *testing.T, node types.NodeID, tweak func(*Config)) *Instance {
	t.Helper()
	cfg := types.NewConfig(1)
	ks := crypto.NewKeyStore([]byte("pbft-durable-test"), cfg.N, 4)
	c := Config{
		Cluster:      cfg,
		Instance:     0,
		Node:         node,
		BatchSize:    1,
		BatchTimeout: time.Millisecond,
		Durable:      true,
	}
	if tweak != nil {
		tweak(&c)
	}
	return New(c, ks.NodeRing(node))
}

func testRef(b byte) types.RequestRef {
	return types.RequestRef{Client: 1, ID: types.RequestID(b), Digest: types.Digest{b}}
}

func hasMsg(out Output, want message.Type) bool {
	for _, ob := range out.Msgs {
		if ob.Msg.MsgType() == want {
			return true
		}
	}
	return false
}

// TestJournalEmitsRecordsForSentMessages: a durable primary attaches a
// SentPrePrepare record to the same Output as the PRE-PREPARE itself, so the
// driver can persist before transmitting.
func TestJournalEmitsRecordsForSentMessages(t *testing.T) {
	in := durableInstance(t, 0, nil) // primary of view 0
	now := time.Unix(0, 0)
	out := in.AddRequest(testRef(1), now)
	if !hasMsg(out, message.TypePrePrepare) {
		t.Fatal("primary did not propose")
	}
	var kinds []wal.Kind
	for _, r := range out.Records {
		kinds = append(kinds, r.Kind)
	}
	if len(kinds) == 0 || kinds[0] != wal.KindSentPrePrepare {
		t.Fatalf("expected a SentPrePrepare record first, got %v", kinds)
	}
	// Non-durable instances must attach nothing.
	plain := New(Config{
		Cluster: types.NewConfig(1), Instance: 0, Node: 0,
		BatchSize: 1, BatchTimeout: time.Millisecond,
	}, crypto.NewKeyStore([]byte("pbft-durable-test"), 4, 4).NodeRing(0))
	out = plain.AddRequest(testRef(1), now)
	if len(out.Records) != 0 {
		t.Fatalf("non-durable instance attached %d records", len(out.Records))
	}
}

// TestRestoredPrepareBlocksEquivocation: after recovery, a backup that had
// logged a PREPARE for digest A at (view, seq) must not PREPARE a different
// batch at the same slot, but must accept the identical proposal.
func TestRestoredPrepareBlocksEquivocation(t *testing.T) {
	now := time.Unix(0, 0)
	refA, refB := testRef(1), testRef(2)

	ppA := &message.PrePrepare{Instance: 0, View: 0, Seq: 1, Batch: []types.RequestRef{refA}, Node: 0}
	ppB := &message.PrePrepare{Instance: 0, View: 0, Seq: 1, Batch: []types.RequestRef{refB}, Node: 0}

	in := durableInstance(t, 1, nil) // backup; node 0 is primary
	in.Restore(wal.Record{Kind: wal.KindSentPrepare, View: 0, Seq: 1, Digest: ppA.BatchDigest()})
	in.FinishRestore(0)
	in.AddRequest(refA, now)
	in.AddRequest(refB, now)

	out, err := in.OnMessage(ppB, now)
	if err != nil {
		t.Fatalf("OnMessage(ppB): %v", err)
	}
	if hasMsg(out, message.TypePrepare) {
		t.Fatal("restored backup PREPAREd a conflicting batch at a promised slot")
	}

	// A fresh instance (same keys, no promise) would have prepared ppB; make
	// sure the guard is what blocked it, not some other precondition.
	fresh := durableInstance(t, 1, nil)
	fresh.AddRequest(refB, now)
	out, err = fresh.OnMessage(ppB, now)
	if err != nil {
		t.Fatalf("OnMessage(ppB) on fresh instance: %v", err)
	}
	if !hasMsg(out, message.TypePrepare) {
		t.Fatal("fresh instance did not PREPARE ppB; test premise broken")
	}

	// The identical proposal is honoured: re-sending the same PREPARE is not
	// equivocation.
	in2 := durableInstance(t, 1, nil)
	in2.Restore(wal.Record{Kind: wal.KindSentPrepare, View: 0, Seq: 1, Digest: ppA.BatchDigest()})
	in2.FinishRestore(0)
	in2.AddRequest(refA, now)
	out, err = in2.OnMessage(ppA, now)
	if err != nil {
		t.Fatalf("OnMessage(ppA): %v", err)
	}
	if !hasMsg(out, message.TypePrepare) {
		t.Fatal("restored backup refused to re-PREPARE the promised batch")
	}
}

// TestRestoredCommitBlocksEquivocation: a logged COMMIT for digest A pins the
// slot; a conflicting batch may gather prepares but must never be committed.
func TestRestoredCommitBlocksEquivocation(t *testing.T) {
	now := time.Unix(0, 0)
	refA, refB := testRef(1), testRef(2)
	ppA := &message.PrePrepare{Instance: 0, View: 0, Seq: 1, Batch: []types.RequestRef{refA}, Node: 0}
	ppB := &message.PrePrepare{Instance: 0, View: 0, Seq: 1, Batch: []types.RequestRef{refB}, Node: 0}

	in := durableInstance(t, 1, nil)
	in.Restore(wal.Record{Kind: wal.KindSentCommit, View: 0, Seq: 1, Digest: ppA.BatchDigest()})
	in.FinishRestore(0)
	in.AddRequest(refB, now)

	out, err := in.OnMessage(ppB, now)
	if err != nil {
		t.Fatalf("OnMessage(ppB): %v", err)
	}
	// No COMMIT promise on PREPARE itself — preparing B is fine.
	if !hasMsg(out, message.TypePrepare) {
		t.Fatal("backup did not PREPARE ppB")
	}
	digB := ppB.BatchDigest()
	for _, peer := range []types.NodeID{2, 3} {
		p := &message.Prepare{Instance: 0, View: 0, Seq: 1, Digest: digB, Node: peer}
		out, err = in.OnMessage(p, now)
		if err != nil {
			t.Fatalf("OnMessage(prepare from %d): %v", peer, err)
		}
		if hasMsg(out, message.TypeCommit) {
			t.Fatal("restored backup COMMITted a batch conflicting with its logged COMMIT")
		}
	}
}

// TestRestorePrimaryDoesNotReuseSequences: the recovered primary resumes
// proposing after its highest logged PRE-PREPARE, never reusing a sequence
// number a pre-crash proposal may already occupy on the backups.
func TestRestorePrimaryDoesNotReuseSequences(t *testing.T) {
	now := time.Unix(0, 0)
	in := durableInstance(t, 0, nil)
	in.Restore(wal.Record{Kind: wal.KindSentPrePrepare, View: 0, Seq: 5, Refs: []types.RequestRef{testRef(9)}})
	in.FinishRestore(0)

	out := in.AddRequest(testRef(1), now)
	found := false
	for _, ob := range out.Msgs {
		if pp, ok := ob.Msg.(*message.PrePrepare); ok {
			found = true
			if pp.Seq != 6 {
				t.Fatalf("recovered primary proposed at seq %d, want 6", pp.Seq)
			}
		}
	}
	if !found {
		t.Fatal("recovered primary did not propose")
	}
}

// TestRestoreViewChangeState: view/in-view-change flags come back from the
// logged VIEW-CHANGE / NEW-VIEW high-water marks.
func TestRestoreViewChangeState(t *testing.T) {
	// Crash mid view change: VC logged, NEW-VIEW never installed.
	in := durableInstance(t, 1, nil)
	in.Restore(wal.Record{Kind: wal.KindViewChange, View: 2})
	in.FinishRestore(0)
	if in.View() != 2 || !in.inViewChange {
		t.Fatalf("view=%d inViewChange=%v after interrupted view change, want 2/true", in.View(), in.inViewChange)
	}

	// Crash after the NEW-VIEW: fully in the new view.
	in = durableInstance(t, 1, nil)
	in.Restore(wal.Record{Kind: wal.KindViewChange, View: 2})
	in.Restore(wal.Record{Kind: wal.KindNewView, View: 2})
	in.FinishRestore(0)
	if in.View() != 2 || in.inViewChange {
		t.Fatalf("view=%d inViewChange=%v after completed view change, want 2/false", in.View(), in.inViewChange)
	}
}

// TestRestoreStableCheckpointPrunesPromises: promises at or below the stable
// checkpoint are dropped, and delivery resumes from the checkpoint.
func TestRestoreStableCheckpointPrunesPromises(t *testing.T) {
	in := durableInstance(t, 1, nil)
	in.Restore(wal.Record{Kind: wal.KindSentPrepare, View: 0, Seq: 3, Digest: types.Digest{1}})
	in.Restore(wal.Record{Kind: wal.KindSentPrepare, View: 0, Seq: 12, Digest: types.Digest{2}})
	in.Restore(wal.Record{Kind: wal.KindStable, Seq: 10, Digest: types.Digest{3}})
	in.FinishRestore(0)
	if _, ok := in.promisedPrepare[3]; ok {
		t.Fatal("promise below the stable checkpoint survived")
	}
	if _, ok := in.promisedPrepare[12]; !ok {
		t.Fatal("promise above the stable checkpoint was dropped")
	}
	if in.LastDelivered() != 10 {
		t.Fatalf("LastDelivered = %d after restore, want 10", in.LastDelivered())
	}
}
