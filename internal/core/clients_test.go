package core

import (
	"testing"
	"time"

	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/types"
)

// testEvictedClientRetransmission drives a bounded client table until an
// executed client is evicted, then retransmits its request: the executed
// watermark (which survives eviction) must turn the retransmission into a
// clean drop — never a second execution, never a re-entry into ordering.
func testEvictedClientRetransmission(t *testing.T, mode types.OrderingMode) {
	t.Helper()
	reg := obs.NewRegistry()
	nc := newNodeCluster(t, 1, func(c *Config) {
		c.OrderingMode = mode
		c.MaxClients = 2
	})
	nc.nodes[0].SetRegistry(reg)

	req := nc.sendRequest(1, []byte{0, 0, 0, 0, 0, 0, 0, 7})
	nc.runFor(100 * time.Millisecond)
	if got := len(nc.completed[1]); got != 1 {
		t.Fatalf("client 1 completed %d requests, want 1", got)
	}

	// Churn other clients through the two-entry table until client 1 falls
	// off the LRU.
	for id := types.ClientID(2); id <= 5; id++ {
		nc.sendRequest(id, []byte{0, 0, 0, 0, 0, 0, 0, 1})
		nc.runFor(100 * time.Millisecond)
	}
	if got := nc.nodes[0].ClientCount(); got > 2 {
		t.Fatalf("client table holds %d entries, bound 2", got)
	}
	if got := reg.Counter("rbft_client_evictions_total").Value(); got == 0 {
		t.Fatal("churn past the table bound evicted nothing; the scenario is vacuous")
	}

	// Retransmit client 1's executed request to node 0 directly.
	before := nc.apps[0].Total(1)
	out := onClientRequest(nc.nodes[0], req, nc.now)
	if nc.apps[0].Total(1) != before {
		t.Fatal("retransmission after eviction re-executed the request")
	}
	for _, nm := range out.NodeMsgs {
		if nm.Msg.MsgType() == message.TypePropagate {
			t.Fatal("retransmission after eviction re-entered ordering via PROPAGATE")
		}
	}

	// And through the whole cluster: totals stay put and every node keeps the
	// identical execution history.
	for _, n := range nc.cfg.AllNodes() {
		nc.queue = append(nc.queue, clusterEvent{
			isClient: true, fromClient: 1, toNode: n, nodeDst: true, frame: frameOf(req),
		})
	}
	nc.runFor(200 * time.Millisecond)
	if nc.apps[0].Total(1) != before {
		t.Fatalf("cluster-wide retransmission changed client 1's total: %d -> %d",
			before, nc.apps[0].Total(1))
	}
	for i := 1; i < nc.cfg.N; i++ {
		if nc.apps[i].Fingerprint() != nc.apps[0].Fingerprint() {
			t.Fatalf("node %d execution fingerprint diverged after the retransmission", i)
		}
	}
	nc.requireQuiescent()
}

func TestEvictedClientRetransmissionMasterOnly(t *testing.T) {
	testEvictedClientRetransmission(t, types.OrderingMasterOnly)
}

func TestEvictedClientRetransmissionMultiPrimary(t *testing.T) {
	testEvictedClientRetransmission(t, types.OrderingMultiPrimary)
}
