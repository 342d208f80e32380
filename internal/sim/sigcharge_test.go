package sim

import (
	"testing"
	"time"

	"rbft/internal/types"
)

// TestSigVerifyChargedPerCacheMiss: the simulator charges SigVerify for
// exactly the copies whose client signature the node's own VerifyCache
// verified — one per miss — in a fault-free run and in one where every
// client corrupts its MAC entry for node 0, whose REQUEST copies then fail
// before any signature check and whose first check moves to a PROPAGATE. A
// charge per request first seen would also charge node 0 for the requests
// whose REQUEST reached it before the run ended and no PROPAGATE did.
func TestSigVerifyChargedPerCacheMiss(t *testing.T) {
	for name, corrupt := range map[string][]types.NodeID{"fault-free": nil, "bad client MACs at node 0": {0}} {
		cfg := baseConfig(1, 8, 10, 2500)
		cfg.CorruptClientAuthFor = corrupt
		s := New(cfg)
		s.Run(time.Second)
		for _, sn := range s.nodes {
			_, misses := sn.node.Preverifier().Cache().Stats()
			if misses == 0 || uint64(sn.sigChecks) != misses {
				t.Errorf("%s: node %d charged %d signature checks, its VerifyCache verified %d", name, sn.id, sn.sigChecks, misses)
			}
		}
	}
}
