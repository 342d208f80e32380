package runtime

import (
	"testing"
	"time"

	"rbft/internal/client"
	"rbft/internal/core"
	"rbft/internal/message"
)

// TestOneSignatureCheckPerBundlePerNode drives a few hundred client bundles
// through a memnet cluster whose nodes preverify on their real verifier
// pools, where a bundle's REQUEST and a PROPAGATE of it often reach two
// workers at once. Each node must check each bundle's signature once: the
// misses of the four verification caches, which evict nothing at this load,
// sum to exactly four per bundle the client signed.
func TestOneSignatureCheckPerBundlePerNode(t *testing.T) {
	lc, _ := startCluster(t, Mem, nil)
	tr, err := lc.listen(ClientName(1))
	if err != nil {
		t.Fatal(err)
	}
	log := &sentFrames{Transport: tr}
	cr := StartClient(client.New(client.Config{Cluster: lc.Cluster, ID: 1}, lc.ks.ClientRing(1)), log, lc.Cluster)
	t.Cleanup(cr.Stop)

	// Rounds of one to three back-to-back Submits, which the client signs as
	// one bundle or more.
	deadline := time.After(60 * time.Second)
	for r := 0; r < 250; r++ {
		for i := 0; i <= r%3; i++ {
			cr.Submit([]byte{0, 0, 0, 0, 0, 0, 0, 1})
		}
		for i := 0; i <= r%3; i++ {
			select {
			case <-cr.Completions():
			case <-deadline:
				t.Fatalf("round %d: %d of %d requests completed", r, i, 1+r%3)
			}
		}
	}

	// A retransmission repeats a signature; the bundles are the signatures.
	log.mu.Lock()
	sent := uint64(len(log.frames)) // one per node a frame went to
	signed := make(map[string]bool)
	for _, frame := range log.frames {
		msg, err := message.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		signed[string(msg.(*message.Request).Sig)] = true
	}
	log.mu.Unlock()
	bundles := uint64(len(signed))
	if bundles > message.VerifyCacheSize {
		t.Fatalf("%d bundles: the caches evict", bundles)
	}
	stats := func() (lookups, misses uint64) {
		for _, nr := range lc.nodes {
			nr.WithNode(func(n *core.Node) core.Output {
				h, m := n.Preverifier().Cache().Stats()
				lookups, misses = lookups+h+m, misses+m
				return core.Output{}
			})
		}
		return lookups, misses
	}
	// The client completes on f+1 replies, so copies may still be on their
	// way to a verifier: wait until every node has looked up the client's
	// frames and the other three nodes' PROPAGATE of every bundle.
	n := uint64(lc.Cluster.N)
	lookups, misses := stats()
	for until := time.Now().Add(10 * time.Second); lookups < sent+n*(n-1)*bundles && time.Now().Before(until); lookups, misses = stats() {
		time.Sleep(10 * time.Millisecond)
	}
	if lookups != sent+n*(n-1)*bundles || misses != n*bundles {
		t.Fatalf("%d bundles: %d lookups, %d Ed25519 checks (%.3f per bundle); want %d lookups and exactly %d checks per bundle",
			bundles, lookups, misses, float64(misses)/float64(bundles), sent+n*(n-1)*bundles, n)
	}
	t.Logf("%d bundles, %d Ed25519 checks", bundles, misses)
}
