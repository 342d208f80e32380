package core

import (
	"testing"
	"time"
)

// requestPath takes one signed request of client 1 through the four nodes of
// nc to its f+1 matching replies: REQUEST, the PROPAGATE round, dispatch to
// both replicas, three-phase ordering on both instances, execution and reply
// on every node — the core layer's whole share of the request path, crypto
// and nodeCluster's in-memory queue included.
func requestPath(nc *nodeCluster, op []byte) {
	nc.completed[1] = nc.completed[1][:0]
	nc.sendRequest(1, op)
	nc.runFor(2 * time.Millisecond) // past the 1 ms batch timeout
	if len(nc.completed[1]) != 1 {
		nc.t.Fatalf("request did not complete (%d completions)", len(nc.completed[1]))
	}
}

var requestPathOp = []byte{0, 0, 0, 0, 0, 0, 0, 1}

func BenchmarkNodeRequestPath(b *testing.B) {
	nc := newNodeCluster(b, 1, nil)
	requestPath(nc, requestPathOp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requestPath(nc, requestPathOp)
	}
}

// TestNodeRequestPathAllocationBudget puts a ceiling on what one request
// allocates across the four nodes (scripts/ci.sh's allocation gate). Since
// nodeCluster carries frames the count includes the wire: one Marshal per
// message sent and one Decode per delivery (383 allocations when it handed
// message objects from node to node, 545 carrying frames). Measured 396:
// 408 before app.Null returned a shared result and the execution scheduler
// kept its Result slices from batch to batch.
func TestNodeRequestPathAllocationBudget(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	requestPath(nc, requestPathOp)
	const ceiling = 396
	n := testing.AllocsPerRun(200, func() { requestPath(nc, requestPathOp) })
	t.Logf("%v allocs", n)
	if n > ceiling {
		t.Errorf("one request through four nodes: %v allocs, want <= %d", n, ceiling)
	}
}

// bundlePath is requestPath for a bundle of 16 requests: one REQUEST frame
// and one PROPAGATE round for all of them, then two batches of 8.
func bundlePath(nc *nodeCluster, op []byte) {
	nc.completed[1] = nc.completed[1][:0]
	ops := make([][]byte, 16)
	for i := range ops {
		ops[i] = op
	}
	nc.sendFrame(1, frameOf(nc.queueBundle(1, ops...)), nc.cfg.AllNodes()...)
	nc.runFor(2 * time.Millisecond)
	if len(nc.completed[1]) != len(ops) {
		nc.t.Fatalf("bundle did not complete (%d of %d completions)", len(nc.completed[1]), len(ops))
	}
}

// TestNodeBundlePathAllocationBudget is the bundle row of the gate above: per
// request, a 16-request bundle allocates a fraction of what a single request
// does, because signing, the authenticators, the frames, the preverify
// certificates and the PROPAGATE round are paid once per bundle, a reply frame
// and its decode once per bundle and batch, and request records once per slab.
func TestNodeBundlePathAllocationBudget(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	bundlePath(nc, requestPathOp)
	const ceiling = 53.6 // per request; measured 53.56, against 396 for a single request (55.06 before the shared app.Null result and the reused scheduler Result; 55.8 while every PROPAGATE copy hashed its bundle again; 77.4 and 416 with a REPLY per request)
	n := testing.AllocsPerRun(50, func() { bundlePath(nc, requestPathOp) }) / 16
	t.Logf("%v allocs per request", n)
	if n > ceiling {
		t.Errorf("a 16-request bundle through four nodes: %v allocs per request, want <= %v", n, ceiling)
	}
}
