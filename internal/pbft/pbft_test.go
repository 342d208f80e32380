package pbft

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/types"
)

// testCluster wires N instance replicas together through an in-memory queue,
// advancing a virtual clock for timers. Delivery order is FIFO unless a
// shuffle source is installed.
type testCluster struct {
	t         *testing.T
	cfg       types.Config
	ks        *crypto.KeyStore
	replicas  []*Instance
	queue     []netMsg
	now       time.Time
	rng       *rand.Rand // if non-nil, deliveries are randomly interleaved
	drop      func(from, to types.NodeID, m message.Message) bool
	delivered map[types.NodeID][]Batch
	// executed, once nodeSignal installs it, is each node's set of executed
	// (client, id) keys; peak is the most request records a replica held.
	executed map[types.NodeID]map[types.RequestKey]bool
	peak     int
}

type netMsg struct {
	from, to types.NodeID
	msg      message.Message
}

func newTestCluster(t *testing.T, f int, tweak func(*Config)) *testCluster {
	t.Helper()
	cfg := types.NewConfig(f)
	tc := &testCluster{
		t:         t,
		cfg:       cfg,
		ks:        crypto.NewKeyStore([]byte("pbft-test"), cfg.N, 4),
		now:       time.Unix(0, 0),
		delivered: make(map[types.NodeID][]Batch),
	}
	for n := 0; n < cfg.N; n++ {
		c := Config{
			Cluster:      cfg,
			Instance:     0,
			Node:         types.NodeID(n),
			BatchSize:    8,
			BatchTimeout: time.Millisecond,
		}
		if tweak != nil {
			tweak(&c)
		}
		tc.replicas = append(tc.replicas, New(c, tc.ks.NodeRing(types.NodeID(n))))
	}
	return tc
}

func (tc *testCluster) collect(from types.NodeID, out Output) {
	for _, b := range out.Delivered {
		tc.delivered[from] = append(tc.delivered[from], b)
		if done := tc.executed[from]; done != nil {
			for _, ref := range b.Refs {
				done[ref.Key()] = true
				tc.replicas[from].Executed(ref)
			}
		}
	}
	if n := tc.replicas[from].InFlight(); n > tc.peak {
		tc.peak = n
	}
	for _, ob := range out.Msgs {
		targets := ob.To
		if targets == nil {
			targets = tc.cfg.OtherNodes(from)
		}
		for _, to := range targets {
			if tc.drop != nil && tc.drop(from, to, ob.Msg) {
				continue
			}
			tc.queue = append(tc.queue, netMsg{from: from, to: to, msg: ob.Msg})
		}
	}
}

// nodeSignal makes every replica behave as under a core.Node whose master it
// is: the node executes each (client, id) the replica delivers, the first
// time, reports the ref through Executed, and answers SetDecided's question
// from what it executed.
func (tc *testCluster) nodeSignal() {
	tc.executed = make(map[types.NodeID]map[types.RequestKey]bool)
	for n, r := range tc.replicas {
		done := make(map[types.RequestKey]bool)
		tc.executed[types.NodeID(n)] = done
		r.SetDecided(func(ref types.RequestRef) bool { return done[ref.Key()] })
	}
}

// addRequest simulates every node's dispatch module handing the ref to its
// local replica (f+1 PROPAGATEs collected).
func (tc *testCluster) addRequest(ref types.RequestRef) {
	for n, r := range tc.replicas {
		tc.collect(types.NodeID(n), r.AddRequest(ref, tc.now))
	}
	tc.run()
}

// run drains the network queue, firing timers when the queue is empty.
func (tc *testCluster) run() {
	tc.t.Helper()
	for steps := 0; ; steps++ {
		if steps > 2_000_000 {
			tc.t.Fatal("testCluster.run: no quiescence after 2M steps")
		}
		if len(tc.queue) > 0 {
			i := 0
			if tc.rng != nil {
				i = tc.rng.Intn(len(tc.queue))
			}
			m := tc.queue[i]
			tc.queue = append(tc.queue[:i], tc.queue[i+1:]...)
			out, _ := tc.replicas[m.to].OnMessage(m.msg, tc.now)
			tc.collect(m.to, out)
			continue
		}
		// Queue empty: advance the clock to the earliest timer.
		var wake time.Time
		for _, r := range tc.replicas {
			w := r.NextWake()
			if w.IsZero() {
				continue
			}
			if wake.IsZero() || w.Before(wake) {
				wake = w
			}
		}
		if wake.IsZero() {
			return
		}
		if wake.After(tc.now) {
			tc.now = wake
		}
		for n, r := range tc.replicas {
			w := r.NextWake()
			if !w.IsZero() && !tc.now.Before(w) {
				tc.collect(types.NodeID(n), r.Tick(tc.now))
			}
		}
	}
}

func (tc *testCluster) startViewChange(v types.View) {
	for n, r := range tc.replicas {
		tc.collect(types.NodeID(n), r.StartViewChange(v, tc.now))
	}
	tc.run()
}

func ref(client types.ClientID, id types.RequestID) types.RequestRef {
	r := types.RequestRef{Client: client, ID: id}
	r.Digest = crypto.Digest([]byte{byte(client), byte(id), byte(id >> 8)})
	return r
}

// orderedRefs flattens a node's delivered batches.
func orderedRefs(batches []Batch) []types.RequestRef {
	var refs []types.RequestRef
	for _, b := range batches {
		refs = append(refs, b.Refs...)
	}
	return refs
}

func sameOrder(a, b []types.RequestRef) bool {
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

func TestOrderSingleRequest(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	r := ref(0, 1)
	tc.addRequest(r)
	for n := 0; n < tc.cfg.N; n++ {
		got := orderedRefs(tc.delivered[types.NodeID(n)])
		if len(got) != 1 || got[0] != r {
			t.Fatalf("node %d delivered %v, want [%v]", n, got, r)
		}
	}
}

func TestAllNodesDeliverSameOrder(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	for i := 0; i < 50; i++ {
		tc.addRequest(ref(types.ClientID(i%3), types.RequestID(i)))
	}
	want := orderedRefs(tc.delivered[0])
	if len(want) != 50 {
		t.Fatalf("node 0 delivered %d refs, want 50", len(want))
	}
	for n := 1; n < tc.cfg.N; n++ {
		if !sameOrder(want, orderedRefs(tc.delivered[types.NodeID(n)])) {
			t.Fatalf("node %d order differs from node 0", n)
		}
	}
}

func TestBatchingRespectsBatchSize(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) { c.BatchSize = 4 })
	// Inject 10 requests before running the network, so the primary batches.
	var outs []Output
	for i := 0; i < 10; i++ {
		r := ref(0, types.RequestID(i))
		for n, rep := range tc.replicas {
			out := rep.AddRequest(r, tc.now)
			if n == int(tc.replicas[0].Primary()) {
				outs = append(outs, out)
			}
			tc.collect(types.NodeID(n), out)
		}
	}
	tc.run()
	for n := 0; n < tc.cfg.N; n++ {
		batches := tc.delivered[types.NodeID(n)]
		total := 0
		for _, b := range batches {
			if len(b.Refs) > 4 {
				t.Fatalf("batch of %d exceeds BatchSize 4", len(b.Refs))
			}
			total += len(b.Refs)
		}
		if total != 10 {
			t.Fatalf("node %d delivered %d refs, want 10", n, total)
		}
	}
}

func TestDuplicateRequestIgnored(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	r := ref(1, 7)
	tc.addRequest(r)
	tc.addRequest(r)
	for n := 0; n < tc.cfg.N; n++ {
		if got := orderedRefs(tc.delivered[types.NodeID(n)]); len(got) != 1 {
			t.Fatalf("node %d delivered %d refs, want 1 (dedup)", n, len(got))
		}
	}
}

func TestSilentBackupReplicaDoesNotStall(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	// Pick a non-primary replica and silence it (a faulty node's replica
	// that "does not take part in the protocol", per worst-attack-1).
	primary := tc.replicas[0].Primary()
	silent := types.NodeID((int(primary) + 1) % tc.cfg.N)
	tc.replicas[silent].SetBehavior(Behavior{Silent: true})
	for i := 0; i < 20; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	for n := 0; n < tc.cfg.N; n++ {
		id := types.NodeID(n)
		if id == silent {
			continue
		}
		if got := len(orderedRefs(tc.delivered[id])); got != 20 {
			t.Fatalf("node %d delivered %d refs, want 20 despite silent replica", n, got)
		}
	}
}

func TestSilentPrimaryStallsInstance(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	primary := tc.replicas[0].Primary()
	tc.replicas[primary].SetBehavior(Behavior{Silent: true})
	for i := 0; i < 5; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	for n := 0; n < tc.cfg.N; n++ {
		if got := len(orderedRefs(tc.delivered[types.NodeID(n)])); got != 0 {
			t.Fatalf("node %d delivered %d refs under a silent primary, want 0", n, got)
		}
	}
}

func TestCheckpointGarbageCollection(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) {
		c.BatchSize = 1
		c.CheckpointInterval = 4
		c.WatermarkWindow = 16
	})
	for i := 0; i < 20; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	for n, r := range tc.replicas {
		if r.stableSeq < 16 {
			t.Errorf("node %d stableSeq = %d, want >= 16", n, r.stableSeq)
		}
		for seq := range r.entries {
			if seq <= r.stableSeq {
				t.Errorf("node %d retains entry %d below stable %d", n, seq, r.stableSeq)
			}
		}
		if got := len(orderedRefs(tc.delivered[types.NodeID(n)])); got != 20 {
			t.Errorf("node %d delivered %d, want 20", n, got)
		}
	}
}

func TestWatermarkLimitsThenRecovers(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) {
		c.BatchSize = 1
		c.CheckpointInterval = 2
		c.WatermarkWindow = 4
	})
	// 30 requests: far beyond the initial window; checkpoint stabilisation
	// must repeatedly slide the window forward.
	for i := 0; i < 30; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	for n := 0; n < tc.cfg.N; n++ {
		if got := len(orderedRefs(tc.delivered[types.NodeID(n)])); got != 30 {
			t.Fatalf("node %d delivered %d, want 30", n, got)
		}
	}
}

func TestViewChangeRotatesPrimaryAndPreservesLiveness(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	for i := 0; i < 10; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	oldPrimary := tc.replicas[0].Primary()
	tc.startViewChange(1)
	for n, r := range tc.replicas {
		if r.View() != 1 {
			t.Fatalf("node %d view = %d, want 1", n, r.View())
		}
		if r.inViewChange {
			t.Fatalf("node %d stuck in view change", n)
		}
	}
	if p := tc.replicas[0].Primary(); p == oldPrimary {
		t.Fatalf("primary did not rotate (still %d)", p)
	}
	for i := 10; i < 20; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	want := orderedRefs(tc.delivered[0])
	if len(want) != 20 {
		t.Fatalf("node 0 delivered %d refs, want 20", len(want))
	}
	for n := 1; n < tc.cfg.N; n++ {
		if !sameOrder(want, orderedRefs(tc.delivered[types.NodeID(n)])) {
			t.Fatalf("node %d order differs after view change", n)
		}
	}
}

func TestViewChangeNoDuplicateDelivery(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	for i := 0; i < 15; i++ {
		tc.addRequest(ref(types.ClientID(i%2), types.RequestID(i)))
	}
	for v := types.View(1); v <= 3; v++ {
		tc.startViewChange(v)
	}
	for n := 0; n < tc.cfg.N; n++ {
		seen := make(map[types.RequestRef]int)
		for _, r := range orderedRefs(tc.delivered[types.NodeID(n)]) {
			seen[r]++
			if seen[r] > 1 {
				t.Fatalf("node %d delivered %v twice", n, r)
			}
		}
		if len(seen) != 15 {
			t.Fatalf("node %d delivered %d distinct refs, want 15", n, len(seen))
		}
	}
}

func TestViewChangeRecoversInFlightRequests(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	// Inject requests but drop every COMMIT so nothing delivers; the
	// requests prepare at most.
	tc.drop = func(from, to types.NodeID, m message.Message) bool {
		return m.MsgType() == message.TypeCommit
	}
	for i := 0; i < 6; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	for n := 0; n < tc.cfg.N; n++ {
		if got := len(orderedRefs(tc.delivered[types.NodeID(n)])); got != 0 {
			t.Fatalf("node %d delivered %d refs with commits dropped", n, got)
		}
	}
	tc.drop = nil
	tc.startViewChange(1)
	for n := 0; n < tc.cfg.N; n++ {
		got := orderedRefs(tc.delivered[types.NodeID(n)])
		if len(got) != 6 {
			t.Fatalf("node %d delivered %d refs after view change, want 6", n, got)
		}
	}
}

func TestViewChangeSkipsToHigherView(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	tc.addRequest(ref(0, 1))
	tc.startViewChange(5)
	for n, r := range tc.replicas {
		if r.View() != 5 || r.inViewChange {
			t.Fatalf("node %d view=%d inVC=%v, want view 5 settled", n, r.View(), r.inViewChange)
		}
	}
	tc.addRequest(ref(0, 2))
	for n := 0; n < tc.cfg.N; n++ {
		if got := len(orderedRefs(tc.delivered[types.NodeID(n)])); got != 2 {
			t.Fatalf("node %d delivered %d refs, want 2", n, got)
		}
	}
}

func TestStartViewChangeIgnoresBackwardViews(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	tc.startViewChange(3)
	out := tc.replicas[0].StartViewChange(2, tc.now)
	if len(out.Msgs) != 0 {
		t.Fatal("backward view change must be a no-op")
	}
	if tc.replicas[0].View() != 3 {
		t.Fatalf("view regressed to %d", tc.replicas[0].View())
	}
}

func TestPrePrepareDelayAttackDelaysDelivery(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	primary := tc.replicas[0].Primary()
	const delay = 500 * time.Millisecond
	tc.replicas[primary].SetBehavior(Behavior{PrePrepareDelay: delay})
	start := tc.now
	tc.addRequest(ref(0, 1))
	if got := len(orderedRefs(tc.delivered[0])); got != 1 {
		t.Fatalf("delivered %d refs, want 1", got)
	}
	if elapsed := tc.now.Sub(start); elapsed < delay {
		t.Fatalf("delivered after %v, attack delay is %v", elapsed, delay)
	}
}

func TestUnfairPrimaryDelaysOnlyTargetClient(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) { c.BatchSize = 1 })
	primary := tc.replicas[0].Primary()
	tc.replicas[primary].SetBehavior(Behavior{
		PrePrepareDelay: 300 * time.Millisecond,
		DelayClients:    map[types.ClientID]bool{7: true},
	})
	start := tc.now
	tc.addRequest(ref(3, 1)) // untargeted client
	fastElapsed := tc.now.Sub(start)
	start = tc.now
	tc.addRequest(ref(7, 1)) // targeted client
	slowElapsed := tc.now.Sub(start)
	if fastElapsed >= 300*time.Millisecond {
		t.Fatalf("untargeted client delayed %v", fastElapsed)
	}
	if slowElapsed < 300*time.Millisecond {
		t.Fatalf("targeted client not delayed (%v)", slowElapsed)
	}
}

func TestRejectsPrePrepareFromNonPrimary(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	primary := tc.replicas[0].Primary()
	imposter := types.NodeID((int(primary) + 1) % tc.cfg.N)
	victim := types.NodeID((int(primary) + 2) % tc.cfg.N)
	pp := &message.PrePrepare{
		Instance: 0, View: 0, Seq: 1,
		Batch: []types.RequestRef{ref(0, 1)},
		Node:  imposter,
	}
	if _, err := tc.replicas[victim].OnMessage(pp, tc.now); err == nil {
		t.Fatal("PRE-PREPARE from non-primary must be rejected")
	}
}

func TestRejectsPrepareFromPrimary(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	primary := tc.replicas[0].Primary()
	victim := types.NodeID((int(primary) + 1) % tc.cfg.N)
	p := &message.Prepare{Instance: 0, View: 0, Seq: 1, Node: primary}
	if _, err := tc.replicas[victim].OnMessage(p, tc.now); err == nil {
		t.Fatal("PREPARE from the primary must be rejected")
	}
}

func TestRejectsWrongInstanceMessages(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	p := &message.Prepare{Instance: 1, View: 0, Seq: 1, Node: 1}
	if _, err := tc.replicas[0].OnMessage(p, tc.now); err == nil {
		t.Fatal("message for another instance must be rejected")
	}
}

func TestConflictingPrePrepareKeepsFirst(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	primary := tc.replicas[0].Primary()
	victim := types.NodeID((int(primary) + 1) % tc.cfg.N)
	r1, r2 := ref(0, 1), ref(0, 2)
	// The victim's node knows both requests.
	tc.replicas[victim].AddRequest(r1, tc.now)
	tc.replicas[victim].AddRequest(r2, tc.now)
	pp1 := &message.PrePrepare{Instance: 0, View: 0, Seq: 1, Batch: []types.RequestRef{r1}, Node: primary}
	pp2 := &message.PrePrepare{Instance: 0, View: 0, Seq: 1, Batch: []types.RequestRef{r2}, Node: primary}
	out1, err := tc.replicas[victim].OnMessage(pp1, tc.now)
	if err != nil || len(out1.Msgs) == 0 {
		t.Fatalf("first PRE-PREPARE not accepted: %v", err)
	}
	out2, _ := tc.replicas[victim].OnMessage(pp2, tc.now)
	if len(out2.Msgs) != 0 {
		t.Fatal("equivocating PRE-PREPARE must not trigger a second PREPARE")
	}
}

func TestPrepareWithheldUntilRequestKnown(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	primary := tc.replicas[0].Primary()
	victim := types.NodeID((int(primary) + 1) % tc.cfg.N)
	r := ref(0, 1)
	pp := &message.PrePrepare{Instance: 0, View: 0, Seq: 1, Batch: []types.RequestRef{r}, Node: primary}
	out, err := tc.replicas[victim].OnMessage(pp, tc.now)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Msgs) != 0 {
		t.Fatal("PREPARE sent before the node collected f+1 PROPAGATEs")
	}
	out = tc.replicas[victim].AddRequest(r, tc.now)
	foundPrepare := false
	for _, m := range out.Msgs {
		if m.Msg.MsgType() == message.TypePrepare {
			foundPrepare = true
		}
	}
	if !foundPrepare {
		t.Fatal("PREPARE not released when the request became known")
	}
}

func TestF2ClusterOrders(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	for i := 0; i < 10; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	want := orderedRefs(tc.delivered[0])
	if len(want) != 10 {
		t.Fatalf("node 0 delivered %d refs, want 10", len(want))
	}
	for n := 1; n < tc.cfg.N; n++ {
		if !sameOrder(want, orderedRefs(tc.delivered[types.NodeID(n)])) {
			t.Fatalf("node %d order differs", n)
		}
	}
}

func TestF2SilentTwoReplicasStillOrders(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	primary := tc.replicas[0].Primary()
	silenced := 0
	for n := 0; n < tc.cfg.N && silenced < 2; n++ {
		if types.NodeID(n) == primary {
			continue
		}
		tc.replicas[n].SetBehavior(Behavior{Silent: true})
		silenced++
	}
	for i := 0; i < 10; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	if got := len(orderedRefs(tc.delivered[primary])); got != 10 {
		t.Fatalf("primary delivered %d refs with 2 silent replicas, want 10", got)
	}
}

// TestTotalOrderUnderRandomScheduling is the core safety property: with
// random message interleavings (and random view changes), every replica
// delivers the same totally ordered sequence without duplicates.
func TestTotalOrderUnderRandomScheduling(t *testing.T) {
	prop := func(seed int64) bool {
		tc := newTestCluster(t, 1, func(c *Config) { c.BatchSize = 3 })
		tc.rng = rand.New(rand.NewSource(seed))
		nextVC := types.View(1)
		for i := 0; i < 25; i++ {
			tc.addRequest(ref(types.ClientID(i%3), types.RequestID(i/3)))
			if tc.rng.Intn(10) == 0 {
				tc.startViewChange(nextVC)
				nextVC++
			}
		}
		want := orderedRefs(tc.delivered[0])
		seen := make(map[types.RequestRef]bool)
		for _, r := range want {
			if seen[r] {
				return false // duplicate delivery
			}
			seen[r] = true
		}
		for n := 1; n < tc.cfg.N; n++ {
			if !sameOrder(want, orderedRefs(tc.delivered[types.NodeID(n)])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStatsCounting(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	for i := 0; i < 9; i++ {
		tc.addRequest(ref(0, types.RequestID(i)))
	}
	primary := tc.replicas[0].Primary()
	st := tc.replicas[primary].Stats()
	if st.Proposed == 0 {
		t.Error("primary proposed nothing")
	}
	for n, r := range tc.replicas {
		st := r.Stats()
		if st.RefsOrdered != 9 {
			t.Errorf("node %d RefsOrdered = %d, want 9", n, st.RefsOrdered)
		}
	}
}

func TestNewViewValidationRejectsForgery(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	// A NEW-VIEW without a valid quorum of signed view changes must fail.
	v := types.View(1)
	wantPrimary := tc.cfg.PrimaryOf(v, 0)
	nv := &message.NewView{Instance: 0, View: v, Node: wantPrimary}
	victim := types.NodeID((int(wantPrimary) + 1) % tc.cfg.N)
	tc.replicas[victim].StartViewChange(v, tc.now)
	if _, err := tc.replicas[victim].OnMessage(nv, tc.now); err == nil {
		t.Fatal("NEW-VIEW with no view-change quorum must be rejected")
	}
}
