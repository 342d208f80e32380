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
	// The record binds the proposal by its batch digest, as PREPARE and
	// COMMIT records do.
	for _, ob := range out.Msgs {
		if pp, ok := ob.Msg.(*message.PrePrepare); ok {
			if r := out.Records[0]; r.Seq != pp.Seq || r.View != pp.View || r.Digest != pp.BatchDigest() {
				t.Fatalf("SentPrePrepare record %+v does not bind the PRE-PREPARE at seq %d", r, pp.Seq)
			}
		}
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
	pp := &message.PrePrepare{Instance: 0, View: 0, Seq: 5, Batch: []types.RequestRef{testRef(9)}, Node: 0}
	in.Restore(wal.Record{Kind: wal.KindSentPrePrepare, View: 0, Seq: 5, Digest: pp.BatchDigest()})
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

// TestRestoreStableCheckpointPrunesPromises: a promise above the stable
// checkpoint still blocks equivocation, one at or below it never does, and
// delivery resumes from the checkpoint. The window is 8, so the replay meets
// the promise at 12 before the stable checkpoint that brings it in window.
func TestRestoreStableCheckpointPrunesPromises(t *testing.T) {
	now := time.Unix(0, 0)
	in := durableInstance(t, 1, func(c *Config) { c.CheckpointInterval = 2 })
	in.Restore(wal.Record{Kind: wal.KindSentPrepare, View: 0, Seq: 3, Digest: types.Digest{1}})
	in.Restore(wal.Record{Kind: wal.KindSentPrepare, View: 0, Seq: 12, Digest: types.Digest{2}})
	in.Restore(wal.Record{Kind: wal.KindStable, Seq: 10, Digest: types.Digest{3}})
	in.FinishRestore(0)
	if s := in.at(3); in.conflicts(s, s.promisedPrepare) {
		t.Fatal("a promise below the stable checkpoint still blocks its sequence")
	}
	if in.LastDelivered() != 10 {
		t.Fatalf("LastDelivered = %d after restore, want 10", in.LastDelivered())
	}
	// A batch other than the promised one at seq 12 is not prepared; the same
	// batch at seq 11, which holds no promise, is.
	in.AddRequest(testRef(1), now)
	for _, tt := range []struct {
		seq  types.SeqNum
		want bool
	}{{12, false}, {11, true}} {
		pp := &message.PrePrepare{Instance: 0, View: 0, Seq: tt.seq, Batch: []types.RequestRef{testRef(1)}, Node: 0}
		out, err := in.OnMessage(pp, now)
		if err != nil {
			t.Fatalf("OnMessage(seq %d): %v", tt.seq, err)
		}
		if got := hasMsg(out, message.TypePrepare); got != tt.want {
			t.Fatalf("seq %d: PREPARE sent = %v, want %v", tt.seq, got, tt.want)
		}
	}
}
