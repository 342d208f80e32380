package core

import (
	"testing"
	"time"

	"rbft/internal/app"
	"rbft/internal/message"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// durableConfig rebuilds the exact node configuration newNodeCluster uses,
// with durability on, for constructing a post-crash replacement node.
func durableConfig(nc *nodeCluster, id types.NodeID, counter *app.Counter, tweak func(*Config)) Config {
	c := Config{
		Cluster:      nc.cfg,
		Node:         id,
		App:          counter,
		BatchSize:    8,
		BatchTimeout: time.Millisecond,
		Durable:      true,
	}
	c.Monitoring.Period = 50 * time.Millisecond
	c.Monitoring.Delta = 0.5
	c.Monitoring.MinRequests = 5
	if tweak != nil {
		tweak(&c)
	}
	return c
}

// replayOf adapts an in-memory record slice to the Restore replay contract,
// standing in for (*wal.Log).Replay.
func replayOf(recs []wal.Record) func(func(wal.Record) error) error {
	return func(fn func(wal.Record) error) error {
		for _, r := range recs {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestDurableRestartRecoversNode runs a durable cluster under load, "crashes"
// one node by throwing it away, rebuilds it from its accumulated WAL records,
// and checks that the recovered node has the same application state, never
// re-executes, and keeps making progress with the rest of the cluster.
func TestDurableRestartRecoversNode(t *testing.T) {
	// Frequent checkpoints so the restarted node's delivery gap is revealed
	// by checkpoint evidence and filled through the fetch machinery.
	nc := newNodeCluster(t, 1, func(c *Config) {
		c.Durable = true
		c.CheckpointInterval = 2
	})
	const victim = types.NodeID(2)

	var firstReq *message.Request
	for i := 0; i < 20; i++ {
		req := nc.sendRequest(1, []byte{0, 0, 0, 0, 0, 0, 0, 2}) // +2 each
		if i == 0 {
			firstReq = req
		}
	}
	nc.runFor(200 * time.Millisecond)
	if got := len(nc.completed[1]); got != 20 {
		t.Fatalf("client completed %d requests before crash, want 20", got)
	}

	recs := nc.records[victim]
	if len(recs) == 0 {
		t.Fatal("durable node emitted no WAL records")
	}
	kinds := make(map[wal.Kind]int)
	for _, r := range recs {
		kinds[r.Kind]++
	}
	for _, want := range []wal.Kind{wal.KindSentPrepare, wal.KindSentCommit, wal.KindExecuted} {
		if kinds[want] == 0 {
			t.Fatalf("no %v records in the durable log (kinds: %v)", want, kinds)
		}
	}
	if kinds[wal.KindExecuted] != len(nc.executed[victim]) {
		t.Fatalf("logged %d executions, node reported %d", kinds[wal.KindExecuted], len(nc.executed[victim]))
	}

	// Crash: the old node object is discarded; only the records survive.
	oldFP := nc.apps[victim].Fingerprint()
	oldTotal := nc.apps[victim].Total(1)
	counter := app.NewCounter()
	restored := New(durableConfig(nc, victim, counter, func(c *Config) { c.CheckpointInterval = 2 }), nc.ks.NodeRing(victim))
	stats, err := restored.Restore(replayOf(recs))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if stats.Records != len(recs) {
		t.Fatalf("Restore replayed %d records, want %d", stats.Records, len(recs))
	}
	if stats.Executed != len(nc.executed[victim]) {
		t.Fatalf("Restore redid %d executions, want %d", stats.Executed, len(nc.executed[victim]))
	}
	if counter.Fingerprint() != oldFP {
		t.Fatal("restored application fingerprint differs from pre-crash state")
	}
	if counter.Total(1) != oldTotal {
		t.Fatalf("restored counter total = %d, want %d", counter.Total(1), oldTotal)
	}

	// A retransmission of an already-executed request must hit the restored
	// reply cache: one reply, zero executions.
	out := onClientRequest(restored, firstReq, nc.now)
	if len(out.Executions) != 0 {
		t.Fatal("restored node re-executed a pre-crash request")
	}
	if len(out.ClientMsgs) != 1 {
		t.Fatalf("expected 1 cached reply, got %d client messages", len(out.ClientMsgs))
	}

	// Rejoin and keep going.
	nc.nodes[victim] = restored
	nc.apps[victim] = counter
	for i := 0; i < 10; i++ {
		nc.sendRequest(1, []byte{0, 0, 0, 0, 0, 0, 0, 2})
	}
	nc.runFor(300 * time.Millisecond)
	if got := len(nc.completed[1]); got != 30 {
		t.Fatalf("client completed %d requests after restart, want 30", got)
	}
	if total := counter.Total(1); total != 60 {
		t.Fatalf("restored node counter total = %d, want 60 (each request executed exactly once)", total)
	}
	for i := 0; i < nc.cfg.N; i++ {
		if nc.apps[i].Fingerprint() != nc.apps[0].Fingerprint() {
			t.Fatalf("node %d fingerprint diverged after restart", i)
		}
	}
	nc.requireQuiescent()
}

// TestRestoreRejectsTamperedExecution checks the digest binding on executed
// records: an op swapped on disk must fail recovery as corruption.
func TestRestoreRejectsTamperedExecution(t *testing.T) {
	nc := newNodeCluster(t, 1, func(c *Config) { c.Durable = true })
	for i := 0; i < 8; i++ {
		nc.sendRequest(1, []byte{0, 0, 0, 0, 0, 0, 0, 1})
	}
	nc.runFor(200 * time.Millisecond)
	recs := append([]wal.Record(nil), nc.records[0]...)
	tampered := false
	for i := range recs {
		if recs[i].Kind == wal.KindExecuted {
			recs[i].Op = []byte{0, 0, 0, 0, 0, 0, 0, 99}
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no executed record to tamper with")
	}
	restored := New(durableConfig(nc, 0, app.NewCounter(), nil), nc.ks.NodeRing(0))
	if _, err := restored.Restore(replayOf(recs)); err == nil {
		t.Fatal("Restore accepted a tampered executed record")
	}
}

// TestRestoreInstanceChange checks the node-level cpi/view round trip.
func TestRestoreInstanceChange(t *testing.T) {
	nc := newNodeCluster(t, 1, func(c *Config) { c.Durable = true })
	recs := []wal.Record{
		{Kind: wal.KindInstanceChange, CPI: 3, View: 3},
	}
	restored := New(durableConfig(nc, 1, app.NewCounter(), nil), nc.ks.NodeRing(1))
	stats, err := restored.Restore(replayOf(recs))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if stats.CPI != 3 || stats.View != 3 {
		t.Fatalf("restored cpi=%d view=%d, want 3/3", stats.CPI, stats.View)
	}
	for i, r := range restored.replicas {
		if r.View() != 3 {
			t.Fatalf("replica %d view = %d after restore, want 3", i, r.View())
		}
	}
}

// TestRestoreRejectsOutOfRangeInstance guards the replica index.
func TestRestoreRejectsOutOfRangeInstance(t *testing.T) {
	nc := newNodeCluster(t, 1, func(c *Config) { c.Durable = true })
	restored := New(durableConfig(nc, 0, app.NewCounter(), nil), nc.ks.NodeRing(0))
	bad := []wal.Record{{Kind: wal.KindSentPrepare, Instance: 99, Seq: 1}}
	if _, err := restored.Restore(replayOf(bad)); err == nil {
		t.Fatal("Restore accepted a record for a nonexistent instance")
	}
}
