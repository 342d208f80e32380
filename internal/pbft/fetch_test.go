package pbft

import (
	"testing"

	"rbft/internal/message"
	"rbft/internal/types"
)

// TestFetchRecoversPartitionedReplica: one replica loses all inbound traffic
// while the others order and checkpoint past it; when connectivity returns,
// checkpoint evidence reveals the gap and the fetch protocol fills it. The
// adopted batches must then chain into the same log digest as its peers', so
// its later checkpoints match theirs and become stable.
func TestFetchRecoversPartitionedReplica(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) {
		c.BatchSize = 1
		c.CheckpointInterval = 4
		c.WatermarkWindow = 64
	})
	victim := types.NodeID(2)
	tc.drop = func(from, to types.NodeID, m message.Message) bool {
		return to == victim
	}
	for i := 0; i < 20; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	if got := len(orderedRefs(tc.delivered[victim])); got != 0 {
		t.Fatalf("victim delivered %d refs while partitioned", got)
	}
	for n := 0; n < tc.cfg.N; n++ {
		if types.NodeID(n) == victim {
			continue
		}
		if got := len(orderedRefs(tc.delivered[types.NodeID(n)])); got != 20 {
			t.Fatalf("node %d delivered %d refs, want 20 (victim's absence must not stall)", n, got)
		}
	}

	// Heal the partition; order more traffic so fresh checkpoints reach the
	// victim and reveal its gap.
	tc.drop = nil
	for i := 20; i < 60; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}

	want := orderedRefs(tc.delivered[0])
	got := orderedRefs(tc.delivered[victim])
	if len(got) != len(want) {
		t.Fatalf("victim recovered %d of %d refs", len(got), len(want))
	}
	if !sameOrder(want, got) {
		t.Fatal("victim's recovered order diverges")
	}
	for n, r := range tc.replicas {
		if r.stableSeq != 60 || r.logDigest != tc.replicas[victim].logDigest {
			t.Fatalf("node %d is stable at %d, the victim at %d; want both at 60 with one log digest",
				n, r.stableSeq, tc.replicas[victim].stableSeq)
		}
	}
}

// TestFetchRequiresWeakQuorum: a single (possibly faulty) responder cannot
// make a replica adopt a batch.
func TestFetchRequiresWeakQuorum(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) { c.CheckpointInterval = 4 })
	in := tc.replicas[0]
	// Fabricate checkpoint evidence that seq 4 is committed elsewhere.
	for _, from := range []types.NodeID{1, 2} {
		cp := &message.Checkpoint{Instance: 0, Seq: 4, Digest: types.Digest{7}, Node: from}
		if _, err := in.OnMessage(cp, tc.now); err != nil {
			t.Fatal(err)
		}
	}
	if in.fetch == nil {
		t.Fatal("f+1 checkpoint evidence did not start a fetch")
	}
	// One forged response must not be adopted.
	forged := &message.FetchResp{Instance: 0, Seq: 1, Batch: []types.RequestRef{ref(9, 9)}, Node: 3}
	if _, err := in.OnMessage(forged, tc.now); err != nil {
		t.Fatal(err)
	}
	if in.lastDelivered != 0 {
		t.Fatal("single fetch response was adopted")
	}
	// A second, matching response from a distinct node completes the weak
	// quorum and delivers.
	second := &message.FetchResp{Instance: 0, Seq: 1, Batch: []types.RequestRef{ref(9, 9)}, Node: 2}
	out, err := in.OnMessage(second, tc.now)
	if err != nil {
		t.Fatal(err)
	}
	if in.lastDelivered != 1 || len(out.Delivered) != 1 {
		t.Fatalf("weak quorum did not deliver (lastDelivered=%d)", in.lastDelivered)
	}
}

// TestFetchMismatchedResponsesDoNotCount: responders with different content,
// or with the same refs delivered in different views, do not form a quorum.
func TestFetchMismatchedResponsesDoNotCount(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) { c.CheckpointInterval = 4 })
	in := tc.replicas[0]
	for _, from := range []types.NodeID{1, 2} {
		cp := &message.Checkpoint{Instance: 0, Seq: 4, Digest: types.Digest{7}, Node: from}
		if _, err := in.OnMessage(cp, tc.now); err != nil {
			t.Fatal(err)
		}
	}
	a := &message.FetchResp{Instance: 0, Seq: 1, Batch: []types.RequestRef{ref(1, 1)}, Node: 1}
	b := &message.FetchResp{Instance: 0, Seq: 1, Batch: []types.RequestRef{ref(2, 2)}, Node: 2}
	c := &message.FetchResp{Instance: 0, Seq: 1, View: 1, Batch: []types.RequestRef{ref(1, 1)}, Node: 3}
	in.OnMessage(a, tc.now)
	in.OnMessage(b, tc.now)
	in.OnMessage(c, tc.now)
	if in.lastDelivered != 0 {
		t.Fatal("mismatched responses formed a quorum")
	}
}

// TestFetchServesRetainedBatches: a replica answers FETCH with exactly what
// it delivered.
func TestFetchServesRetainedBatches(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) { c.BatchSize = 1 })
	for i := 0; i < 5; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	in := tc.replicas[1]
	req := &message.Fetch{Instance: 0, FromSeq: 0, ToSeq: 5, Node: 3}
	out, err := in.OnMessage(req, tc.now)
	if err != nil {
		t.Fatal(err)
	}
	resps := 0
	for _, m := range out.Msgs {
		fr, ok := m.Msg.(*message.FetchResp)
		if !ok {
			continue
		}
		resps++
		if len(m.To) != 1 || m.To[0] != 3 {
			t.Fatalf("response addressed to %v, want requester", m.To)
		}
		if len(fr.Batch) != 1 {
			t.Fatalf("seq %d served %d refs", fr.Seq, len(fr.Batch))
		}
	}
	if resps != 5 {
		t.Fatalf("served %d responses, want 5", resps)
	}
}

// TestFetchCodecRoundTrip covers the FETCH and FETCH-RESP codec paths.
func TestFetchCodecRoundTrip(t *testing.T) {
	f := &message.Fetch{Instance: 1, FromSeq: 10, ToSeq: 20, Node: 2}
	wire := f.Marshal(nil)
	got, err := message.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := got.(*message.Fetch); !ok || g.FromSeq != 10 || g.ToSeq != 20 {
		t.Fatalf("decoded %#v", got)
	}
	fr := &message.FetchResp{Instance: 1, Seq: 15, View: 3, Batch: []types.RequestRef{ref(1, 2)}, Node: 2}
	wire = fr.Marshal(nil)
	got, err = message.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := got.(*message.FetchResp); !ok || g.Instance != 1 || g.Seq != 15 || g.View != 3 || g.Node != 2 ||
		len(g.Batch) != 1 || g.Batch[0] != fr.Batch[0] {
		t.Fatalf("decoded %#v", got)
	}
}

// TestFetchServesOnlyRetention: a replica serves the batches of the last
// retainDeliveredFactor × W sequences it delivered, although its log ring
// still holds older slots; their batches are already freed.
func TestFetchServesOnlyRetention(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) {
		c.BatchSize = 1
		c.CheckpointInterval = 2
	})
	for i := 0; i < 40; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	in := tc.replicas[1]
	retention := retainDeliveredFactor * in.cfg.WatermarkWindow
	if s := in.at(in.lastDelivered - retention); !s.delivered || s.batch != nil {
		t.Fatalf("seq %d: delivered %v, batch %v; want its slot kept and its batch freed", s.seq, s.delivered, s.batch)
	}
	out, err := in.OnMessage(&message.Fetch{Instance: 0, FromSeq: 0, ToSeq: 40, Node: 3}, tc.now)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range out.Msgs {
		if fr := m.Msg.(*message.FetchResp); fr.Seq != in.lastDelivered-retention+types.SeqNum(i)+1 {
			t.Fatalf("response %d serves seq %d", i, fr.Seq)
		}
	}
	if len(out.Msgs) != int(retention) {
		t.Fatalf("served %d batches, want the %d retained", len(out.Msgs), retention)
	}
}
