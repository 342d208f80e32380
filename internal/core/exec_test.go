package core

import (
	"fmt"
	"testing"
	"time"

	"rbft/internal/app"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// newKVCluster builds a nodeCluster whose nodes run the KV application (which
// implements app.ConflictKeyer) with the given parallel worker count. The
// returned slice holds each node's store for state comparison; nc.apps still
// holds the unused Counters newNodeCluster allocates.
func newKVCluster(t *testing.T, f, workers int, tweak func(*Config)) (*nodeCluster, []*app.KV) {
	t.Helper()
	var kvs []*app.KV
	nc := newNodeCluster(t, f, func(c *Config) {
		kv := app.NewKV()
		kvs = append(kvs, kv)
		c.App = kv
		c.ExecWorkers = workers
		if tweak != nil {
			tweak(c)
		}
	})
	return nc, kvs
}

// kvWorkload sends a conflict-dense KV mix from several clients: repeated
// writes to hot keys, reads between them, deletes, and malformed ops. Returns
// the number of requests per client.
func kvWorkload(nc *nodeCluster) map[types.ClientID]int {
	sent := make(map[types.ClientID]int)
	for round := 0; round < 6; round++ {
		for c := types.ClientID(1); c <= 3; c++ {
			ops := []string{
				fmt.Sprintf("PUT hot v%d-%d", round, c), // write/write conflicts
				fmt.Sprintf("PUT k%d-%d x", c, round),   // disjoint writes
				"GET hot",                               // read-after-write
				fmt.Sprintf("DEL k%d-%d", c, round-1),   // write after earlier rounds
				"NOPE arg",                              // malformed, commutes
			}
			for _, op := range ops {
				nc.sendRequest(c, []byte(op))
				sent[c]++
			}
		}
	}
	return sent
}

// TestExecParallelClusterConverges drives a full cluster with the parallel
// scheduler engaged and checks the replicated-state-machine property end to
// end: every node executes the same sequence and lands in the same KV state,
// and every client reply is byte-identical to a cluster running serial apply.
func TestExecParallelClusterConverges(t *testing.T) {
	par, parKVs := newKVCluster(t, 1, 4, nil)
	ser, serKVs := newKVCluster(t, 1, 0, nil)

	sentPar := kvWorkload(par)
	sentSer := kvWorkload(ser)
	par.runFor(500 * time.Millisecond)
	ser.runFor(500 * time.Millisecond)

	for c, want := range sentPar {
		if got := len(par.completed[c]); got != want {
			t.Fatalf("parallel cluster: client %d completed %d of %d", c, got, want)
		}
		if got := len(ser.completed[c]); got != sentSer[c] {
			t.Fatalf("serial cluster: client %d completed %d of %d", c, got, sentSer[c])
		}
	}

	// All parallel nodes agree with each other.
	want := fmt.Sprint(parKVs[0].Snapshot())
	for i := 1; i < par.cfg.N; i++ {
		if got := fmt.Sprint(parKVs[i].Snapshot()); got != want {
			t.Fatalf("node %d KV state diverged:\n%s\nwant:\n%s", i, got, want)
		}
		if !sameRefs(par.executed[0], par.executed[types.NodeID(i)]) {
			t.Fatalf("node %d executed a different sequence", i)
		}
	}
	// And with the serial reference cluster.
	if got := fmt.Sprint(serKVs[0].Snapshot()); got != want {
		t.Fatalf("parallel state differs from serial reference:\n%s\nwant:\n%s", want, got)
	}

	// Replies, matched by request ID, are byte-identical serial vs parallel.
	for c := range sentPar {
		serByID := make(map[types.RequestID]string)
		for _, done := range ser.completed[c] {
			serByID[done.ID] = string(done.Result)
		}
		for _, done := range par.completed[c] {
			if string(done.Result) != serByID[done.ID] {
				t.Fatalf("client %d req %d: parallel reply %q, serial reply %q",
					c, done.ID, done.Result, serByID[done.ID])
			}
		}
	}
	par.requireQuiescent()
	ser.requireQuiescent()
}

// TestExecParallelMultiPrimaryConverges repeats the convergence check with the
// multi-primary ordering mode, where executeBatch consumes lane-merge batches.
func TestExecParallelMultiPrimaryConverges(t *testing.T) {
	nc, kvs := newKVCluster(t, 1, 4, multiPrimaryTweak)
	sent := kvWorkload(nc)
	nc.runFor(500 * time.Millisecond)
	for c, want := range sent {
		if got := len(nc.completed[c]); got != want {
			t.Fatalf("client %d completed %d of %d", c, got, want)
		}
	}
	want := fmt.Sprint(kvs[0].Snapshot())
	for i := 1; i < nc.cfg.N; i++ {
		if got := fmt.Sprint(kvs[i].Snapshot()); got != want {
			t.Fatalf("node %d KV state diverged under multi-primary", i)
		}
		if !sameRefs(nc.executed[0], nc.executed[types.NodeID(i)]) {
			t.Fatalf("node %d executed a different sequence", i)
		}
	}
	nc.requireQuiescent()
}

// TestExecRetransmissionNotReExecuted: with the parallel scheduler engaged,
// a retransmitted request must be answered from the reply cache without
// reaching the application again.
func TestExecRetransmissionNotReExecuted(t *testing.T) {
	nc, kvs := newKVCluster(t, 1, 4, nil)
	req := nc.sendRequest(1, []byte("PUT a once"))
	nc.runFor(100 * time.Millisecond)
	if got := len(nc.completed[1]); got != 1 {
		t.Fatalf("completed %d, want 1", got)
	}
	executed := len(nc.executed[0])
	out := onClientRequest(nc.nodes[0], req, nc.now)
	if len(out.Executions) != 0 {
		t.Fatal("retransmission re-executed through the scheduler")
	}
	if len(out.ClientMsgs) != 1 {
		t.Fatalf("retransmission produced %d client messages, want 1 cached reply", len(out.ClientMsgs))
	}
	if len(nc.executed[0]) != executed {
		t.Fatal("executed-ref log grew on retransmission")
	}
	if v := kvs[0].Snapshot()["a"]; v != "once" {
		t.Fatalf("state[a] = %q, want %q", v, "once")
	}
	nc.requireQuiescent()
}

// TestExecDurableRestartCounter runs a durable cluster with the scheduler
// engaged (the Counter's global write key makes every wave serial, but the
// batch still flows through the scheduler and executeBatch's journaling), crashes a node,
// and checks that a serial WAL replay reproduces the exact order-sensitive
// fingerprint with no double execution.
func TestExecDurableRestartCounter(t *testing.T) {
	nc := newNodeCluster(t, 1, func(c *Config) {
		c.Durable = true
		c.ExecWorkers = 4
	})
	const victim = types.NodeID(1)
	for i := 0; i < 20; i++ {
		nc.sendRequest(1, []byte{0, 0, 0, 0, 0, 0, 0, 3}) // +3 each
	}
	nc.runFor(200 * time.Millisecond)
	if got := len(nc.completed[1]); got != 20 {
		t.Fatalf("completed %d of 20 before crash", got)
	}

	recs := nc.records[victim]
	kinds := make(map[wal.Kind]int)
	for _, r := range recs {
		kinds[r.Kind]++
	}
	if kinds[wal.KindExecuted] != len(nc.executed[victim]) {
		t.Fatalf("journaled %d executions, node reported %d (batch execution must journal per request)",
			kinds[wal.KindExecuted], len(nc.executed[victim]))
	}

	oldFP := nc.apps[victim].Fingerprint()
	counter := app.NewCounter()
	restored := New(durableConfig(nc, victim, counter, func(c *Config) { c.ExecWorkers = 4 }), nc.ks.NodeRing(victim))
	stats, err := restored.Restore(replayOf(recs))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if stats.Executed != len(nc.executed[victim]) {
		t.Fatalf("Restore redid %d executions, want %d", stats.Executed, len(nc.executed[victim]))
	}
	if counter.Fingerprint() != oldFP {
		t.Fatal("restored fingerprint differs: serial replay did not reproduce wave execution")
	}
	if total := counter.Total(1); total != 60 {
		t.Fatalf("restored total = %d, want 60 (a request executed twice or not at all)", total)
	}
	nc.requireQuiescent()
	nc.requireQuiescent(restored)
}

// TestExecDurableRestartKV is the same crash/replay check against the KV
// store, where waves genuinely run in parallel before the crash.
func TestExecDurableRestartKV(t *testing.T) {
	nc, kvs := newKVCluster(t, 1, 4, func(c *Config) { c.Durable = true })
	const victim = types.NodeID(2)
	sent := kvWorkload(nc)
	nc.runFor(500 * time.Millisecond)
	for c, want := range sent {
		if got := len(nc.completed[c]); got != want {
			t.Fatalf("client %d completed %d of %d", c, got, want)
		}
	}

	recs := nc.records[victim]
	kv := app.NewKV()
	restored := New(durableConfig(nc, victim, nil, func(c *Config) {
		c.App = kv
		c.ExecWorkers = 4
	}), nc.ks.NodeRing(victim))
	stats, err := restored.Restore(replayOf(recs))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if stats.Executed != len(nc.executed[victim]) {
		t.Fatalf("Restore redid %d executions, want %d", stats.Executed, len(nc.executed[victim]))
	}
	if got, want := fmt.Sprint(kv.Snapshot()), fmt.Sprint(kvs[victim].Snapshot()); got != want {
		t.Fatalf("restored KV state differs from pre-crash state:\n%s\nwant:\n%s", got, want)
	}
	nc.requireQuiescent()
	nc.requireQuiescent(restored)
}

// TestExecSerialFallbackIdentical: ExecWorkers=0 with a keyed app must not
// share waves — every request is applied in order, a wave of its own
// (nodeCluster.collect checks the plan of every output).
func TestExecSerialFallbackIdentical(t *testing.T) {
	nc, _ := newKVCluster(t, 1, 0, nil)
	if nc.nodes[0].sched.Parallel() {
		t.Fatal("ExecWorkers=0 must not engage the parallel scheduler")
	}
	nc.sendRequest(1, []byte("PUT a 1"))
	nc.runFor(100 * time.Millisecond)
	if got := len(nc.completed[1]); got != 1 {
		t.Fatalf("completed %d, want 1", got)
	}
	nc.requireQuiescent()
}
