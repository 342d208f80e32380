package pbft

import (
	"slices"
	"testing"
	"time"

	"rbft/internal/message"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// TestLogRingFixedOverManyWindows: ten watermark windows of ordering leave
// the ring at the length New gave it, CHECKPOINT votes only above the stable
// checkpoint, and no request record.
func TestLogRingFixedOverManyWindows(t *testing.T) {
	const window = 16
	tc := newTestCluster(t, 1, func(c *Config) {
		c.BatchSize = 1
		c.CheckpointInterval = 4
		c.WatermarkWindow = window
	})
	tc.nodeSignal()
	for i := 0; i < 10*window; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	for n, r := range tc.replicas {
		if got := len(orderedRefs(tc.delivered[types.NodeID(n)])); got != 10*window {
			t.Fatalf("node %d delivered %d refs, want %d", n, got, 10*window)
		}
		if got, want := len(r.log), (retainDeliveredFactor+1)*window; got != want {
			t.Errorf("node %d log holds %d slots, want %d", n, got, want)
		}
		for seq := range r.checkpoints {
			if seq <= r.stableSeq {
				t.Errorf("node %d keeps CHECKPOINT votes at %d, stable at %d", n, seq, r.stableSeq)
			}
		}
	}
	requireNoRecords(t, tc)
}

// TestCheckpointFloodBounded: one peer sending CHECKPOINTs at 10 000
// distinct sequences makes a replica keep votes for at most
// (lastDelivered − stableSeq + len(log))/CheckpointInterval of them, and each
// one off the interval is an error, which the node counts toward flooding.
// It runs once on a fresh replica and once on one that ordered a whole
// window without stabilising (every CHECKPOINT dropped).
func TestCheckpointFloodBounded(t *testing.T) {
	const window = 16
	for _, ordered := range []int{0, window} {
		tc := newTestCluster(t, 1, func(c *Config) {
			c.BatchSize = 1
			c.CheckpointInterval = 4
			c.WatermarkWindow = window
		})
		tc.drop = func(_, _ types.NodeID, m message.Message) bool { return m.MsgType() == message.TypeCheckpoint }
		for i := 0; i < ordered; i++ {
			tc.addRequest(ref(0, types.RequestID(i)))
		}
		in := tc.replicas[0]
		if in.lastDelivered != types.SeqNum(ordered) || in.stableSeq != 0 {
			t.Fatalf("lastDelivered %d, stable %d; want %d and 0", in.lastDelivered, in.stableSeq, ordered)
		}
		errs := 0
		for seq := types.SeqNum(1); seq <= 10_000; seq++ {
			cp := &message.Checkpoint{Instance: 0, Seq: seq, Digest: types.Digest{1}, Node: 3}
			if out, err := in.OnMessage(cp, tc.now); err != nil {
				errs++
			} else if len(out.Msgs) != 0 {
				t.Fatalf("one peer's CHECKPOINT at %d made the replica send", seq)
			}
		}
		interval := in.cfg.CheckpointInterval
		if limit := (ordered + len(in.log)) / int(interval); len(in.checkpoints) > limit {
			t.Fatalf("after %d batches, replica keeps CHECKPOINT votes at %d sequences, bound %d", ordered, len(in.checkpoints), limit)
		}
		if want := 10_000 - 10_000/int(interval); errs != want {
			t.Fatalf("%d CHECKPOINTs rejected, want the %d off the interval", errs, want)
		}
	}
}

// TestViewChangeFloodBounded: one peer sending VIEW-CHANGEs for views 1 to
// 10 000 leaves a replica holding at most N of them — each sender's latest —
// and does not block view 1: the VIEW-CHANGE(1)s of nodes 0–2, arriving out
// of node order, still make view 1's primary send a NEW-VIEW whose
// certificates are in node order.
func TestViewChangeFloodBounded(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	primary := tc.cfg.PrimaryOf(1, 0)
	in := tc.replicas[primary]
	for v := types.View(1); v <= 10_000; v++ {
		vc := &message.ViewChange{Instance: 0, NewView: v, Node: 3}
		if out, err := in.OnMessage(vc, tc.now); err != nil || len(out.Msgs) != 0 {
			t.Fatalf("peer 3's VIEW-CHANGE(%d): error %v, %d messages", v, err, len(out.Msgs))
		}
	}
	held := 0
	for _, vc := range in.viewChanges {
		if vc != nil {
			held++
		}
	}
	if held > tc.cfg.N || len(in.viewChanges) != tc.cfg.N {
		t.Fatalf("replica holds %d VIEW-CHANGEs in %d slots, want at most %d in %d", held, len(in.viewChanges), tc.cfg.N, tc.cfg.N)
	}

	in.StartViewChange(1, tc.now)
	var nv *message.NewView
	for _, from := range []types.NodeID{2, 0} {
		for _, m := range tc.replicas[from].StartViewChange(1, tc.now).Msgs {
			if vc, ok := m.Msg.(*message.ViewChange); ok {
				out, err := in.OnMessage(vc, tc.now)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range out.Msgs {
					if got, ok := m.Msg.(*message.NewView); ok {
						nv = got
					}
				}
			}
		}
	}
	if nv == nil {
		t.Fatal("view 1's primary sent no NEW-VIEW")
	}
	var nodes []types.NodeID
	for _, vc := range nv.ViewChanges {
		nodes = append(nodes, vc.Node)
	}
	if !slices.Equal(nodes, []types.NodeID{0, 1, 2}) {
		t.Fatalf("NEW-VIEW certificates from nodes %v, want [0 1 2]", nodes)
	}
}

// TestFetchAheadKeepsNewerSlots: FETCH carries a replica's lastDelivered
// more than a ring length above its stable checkpoint (the checkpoint
// evidence it fetched by does not match its own digests). PREPAREs and
// COMMITs for the old in-window sequences, whose ring positions newer
// sequences now hold, must not take those positions back: the delivered
// slots and their checkpoint digests survive, and matching CHECKPOINTs then
// stabilise the replica at the sequence it fetched up to.
func TestFetchAheadKeepsNewerSlots(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) {
		c.CheckpointInterval = 4
		c.WatermarkWindow = 16
	})
	in := tc.replicas[3]
	ring := types.SeqNum(len(in.log))
	send := func(m message.Message) {
		t.Helper()
		if _, err := in.OnMessage(m, tc.now); err != nil {
			t.Fatal(err)
		}
	}
	// Two steps of a ring length each: a CHECKPOINT is only kept up to
	// lastDelivered + len(log).
	for target := ring; target <= 2*ring; target += ring {
		for _, from := range []types.NodeID{1, 2} {
			send(&message.Checkpoint{Instance: 0, Seq: target, Digest: types.Digest{0xee}, Node: from})
		}
		for seq := in.lastDelivered + 1; seq <= target; seq++ {
			for _, from := range []types.NodeID{1, 2} {
				send(&message.FetchResp{Instance: 0, Seq: seq, Batch: []types.RequestRef{ref(5, types.RequestID(seq))}, Node: from})
			}
		}
	}
	if in.lastDelivered != 2*ring || in.stableSeq != 0 {
		t.Fatalf("lastDelivered %d, stable %d after fetching; want %d and 0", in.lastDelivered, in.stableSeq, 2*ring)
	}
	for seq := types.SeqNum(1); seq <= in.cfg.WatermarkWindow; seq++ {
		d := types.Digest{byte(seq)}
		send(&message.Prepare{Instance: 0, Seq: seq, Digest: d, Node: 1})
		send(&message.Commit{Instance: 0, Seq: seq, Digest: d, Node: 1})
	}
	for seq := ring + 1; seq <= 2*ring; seq++ {
		s := in.at(seq)
		if s.seq != seq || !s.delivered {
			t.Fatalf("slot of seq %d holds seq %d (delivered %v)", seq, s.seq, s.delivered)
		}
		if seq%in.cfg.CheckpointInterval == 0 && in.checkpoints[seq][in.cfg.Node].IsZero() {
			t.Fatalf("own checkpoint digest at %d lost", seq)
		}
	}
	own := in.checkpoints[2*ring][in.cfg.Node]
	for _, from := range []types.NodeID{1, 2} {
		send(&message.Checkpoint{Instance: 0, Seq: 2 * ring, Digest: own, Node: from})
	}
	if in.stableSeq != 2*ring {
		t.Fatalf("stable at %d, want %d", in.stableSeq, 2*ring)
	}
}

// TestReissuedDeliveredSeqServedInDeliveredView: nodes 2 and 3 deliver
// seq 1 in view 0, nodes 0 and 1 in view 1 after NEW-VIEW re-issues it.
// Each serves seq 1 to a FETCH in the view it delivered it in, although the
// re-issued proposal moved 2's and 3's slot to view 1.
func TestReissuedDeliveredSeqServedInDeliveredView(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	tc.drop = func(from, to types.NodeID, m message.Message) bool {
		return m.MsgType() == message.TypeCommit && to < 2
	}
	tc.addRequest(ref(0, 0))
	tc.drop = nil
	tc.startViewChange(1)
	for n, want := range []types.View{1, 1, 0, 0} {
		r := tc.replicas[n]
		if s := r.at(1); !s.delivered || s.view != 1 {
			t.Fatalf("node %d: seq 1 delivered %v, proposal in view %d; want delivered and re-issued in view 1", n, s.delivered, s.view)
		}
		out, err := r.OnMessage(&message.Fetch{Instance: 0, FromSeq: 0, ToSeq: 1, Node: types.NodeID((n + 1) % tc.cfg.N)}, tc.now)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Msgs) != 1 {
			t.Fatalf("node %d served %d messages, want one FETCH-RESP", n, len(out.Msgs))
		}
		if fr := out.Msgs[0].Msg.(*message.FetchResp); fr.Seq != 1 || fr.View != want {
			t.Fatalf("node %d served seq %d in view %d, want seq 1 in view %d", n, fr.Seq, fr.View, want)
		}
	}
}

// TestFarFetchRespKeepsRetainedBatches: a FETCH-RESP is only let into the
// ring up to lastDelivered + W. One for a sequence beyond, whose ring
// position still holds a batch retained for FETCH, leaves that batch alone.
func TestFarFetchRespKeepsRetainedBatches(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) {
		c.BatchSize = 1
		c.CheckpointInterval = 4
		c.WatermarkWindow = 16
	})
	for i := 0; i < 32; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	in := tc.replicas[3]
	ld, ring := in.lastDelivered, types.SeqNum(len(in.log))
	for _, from := range []types.NodeID{1, 2} {
		if _, err := in.OnMessage(&message.Checkpoint{Instance: 0, Seq: ld + ring, Digest: types.Digest{0xee}, Node: from}, tc.now); err != nil {
			t.Fatal(err)
		}
	}
	for seq := ld + in.cfg.WatermarkWindow + 1; seq <= ld+ring; seq++ {
		if _, err := in.OnMessage(&message.FetchResp{Instance: 0, Seq: seq, Batch: []types.RequestRef{ref(5, 5)}, Node: 1}, tc.now); err != nil {
			t.Fatal(err)
		}
	}
	for seq := types.SeqNum(1); seq <= ld; seq++ {
		if s := in.at(seq); s.seq != seq || !s.delivered {
			t.Fatalf("retained seq %d lost its slot to seq %d", seq, s.seq)
		}
	}
}

// TestReissueAtOrBelowStableTakesNoWaiters: a replica restored at stable
// checkpoint 10 installs a NEW-VIEW that re-issues sequences 1–5, one of
// them naming a ref it has never seen. Nothing would ever release or drop a
// waiter on a sequence it counts as delivered, so the ref must not be
// waited on — nor held.
func TestReissueAtOrBelowStableTakesNoWaiters(t *testing.T) {
	in := durableInstance(t, 2, nil)
	in.Restore(wal.Record{Kind: wal.KindStable, Seq: 10, Digest: types.Digest{3}})
	in.FinishRestore(0)
	primary := in.cfg.Cluster.PrimaryOf(1, 0)
	proof := message.PreparedProof{Seq: 5, Batch: []types.RequestRef{ref(7, 7)}}
	var vcs []message.ViewChange
	for _, n := range []types.NodeID{0, 1, 3} {
		vcs = append(vcs, message.ViewChange{Instance: 0, NewView: 1, Prepared: []message.PreparedProof{proof}, Node: n})
	}
	nv := &message.NewView{Instance: 0, View: 1, ViewChanges: vcs, PrePrepares: in.computeNewViewPrePrepares(1, vcs), Node: primary}
	if _, err := in.OnMessage(nv, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	if s := in.at(5); s.seq != 5 || s.view != 1 || s.waiting != 0 {
		t.Fatalf("re-issued seq 5: slot holds seq %d in view %d, waiting on %d refs", s.seq, s.view, s.waiting)
	}
	if n := records(in); n != 0 {
		t.Fatalf("replica holds %d request records", n)
	}
}
