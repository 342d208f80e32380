//go:build !race

package runtime

import (
	"testing"
	"time"

	"rbft/internal/client"
	"rbft/internal/core"
	"rbft/internal/crypto"
	"rbft/internal/types"
)

// TestIngressAllocatesPerSlabNotPerFrame pins what a received frame costs on
// the way from the wire to the node: its decoded message and its Verified, and
// a 1/64 share of the reader's slab, which a full drain allocates once. No
// item, no authenticator, no copy (memnet delivers the sender's bytes), no
// MAC'd body per frame.
//
// The frame is a PROPAGATE node 3 has already adopted and dispatched, so the
// node itself allocates nothing for it. The real reader and verifier run; the
// test plays the apply loop, so it knows when the 64 frames are through. Not
// under the race detector, where sync.Pool drops the hashers at random.
func TestIngressAllocatesPerSlabNotPerFrame(t *testing.T) {
	cluster := types.NewConfig(1)
	ks := crypto.NewKeyStore([]byte("ingress-alloc-test"), cluster.N, 2)
	nr, node, net := idleRuntime(core.Config{Cluster: cluster, Node: 3, BatchSize: 10000}, ks)
	peer := net.Endpoint(NodeName(1))
	req := client.New(client.Config{Cluster: cluster, ID: 1}, ks.ClientRing(1)).NewRequest([]byte("adopted"), time.Now())
	frame := propagateFrame(ks, cluster, 1, req)
	flush := make([][]byte, egressMaxCoalesce)
	for i := range flush {
		flush[i] = frame
	}

	nr.wg.Add(2)
	go nr.verifyLoop()
	go nr.readLoop()
	defer func() { close(nr.stop); nr.tr.Close(); nr.wg.Wait(); nr.eg.wait() }()
	run := func() {
		if err := peer.SendBatch(NodeName(3), flush); err != nil {
			t.Fatal(err)
		}
		for applied := 0; applied < len(flush); {
			slab := <-nr.pending
			for i := range slab {
				slab[i].ready.Wait()
				nr.apply(node, &slab[i])
			}
			applied += len(slab)
		}
	}
	run() // the first copy is the one the node adopts; warms the pools
	// Measured 130: 128, the slab and one the goroutine hand-offs cost. One
	// slab more is allowed for — the reader may wake before the sender has
	// queued the whole flush.
	if n, limit := testing.AllocsPerRun(50, run), float64(2*len(flush)+3); n > limit {
		t.Errorf("%d frames from wire to node: %v allocs, want <= %v (message + Verified each; a slab per drain)", len(flush), n, limit)
	}
}
