//go:build !race

package message

import (
	"bytes"
	"testing"

	"rbft/internal/types"
)

// TestPreverifyAllocationBudget pins the hot path's allocations at their
// floor: a received frame costs the decoded message and the Verified value —
// no authenticator (it aliases the frame), no MAC'd body (a stack buffer),
// nothing proportional to the op or to N. A PRE-PREPARE adds its decoded
// batch; a bundle, per frame and whatever its size, its list of operations —
// and, when the cache does not hold it, its list of OpDigests. Not under the
// race detector, where sync.Pool drops the pooled hashers at random and a
// digest then allocates one.
func TestPreverifyAllocationBudget(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	ring := ks.NodeRing(1)
	var buf [MaxBodySize]byte
	prepare := &Prepare{Instance: 1, View: 0, Seq: 3, Digest: types.Digest{7}, Node: 1}
	prepare.Auth = ring.AuthenticatorForNodes(testN, prepare.AppendBody(buf[:0]))
	commit := &Commit{Instance: 1, View: 0, Seq: 3, Digest: types.Digest{7}, Node: 1}
	commit.Auth = ring.AuthenticatorForNodes(testN, commit.AppendBody(buf[:0]))
	prePrepare := &PrePrepare{Instance: 1, View: 0, Seq: 3, Batch: sampleRefs(8), Node: 1}
	prePrepare.Auth = ring.AuthenticatorForNodes(testN, prePrepare.AppendBody(buf[:0]))
	propagate := largePropagateFrame(t, ks, pre) // also caches client 1's verdict for the REQUEST row
	request := signedRequest(ks, 1, 1, bytes.Repeat([]byte{0xab}, 4096)).Marshal(nil)
	signed := signedBundle(ks, 1, 2, bundleOps(16)...)
	bundle := signed.Marshal(nil)
	if _, err := pre.PreverifyClientFrame(bundle, 1); err != nil { // caches it
		t.Fatal(err)
	}
	bundlePropagate := propagateOf(ks, 1, signed).Marshal(nil)

	for _, tc := range []struct {
		name       string
		frame      []byte
		fromClient bool
		allocs     float64
		bytes      uint64
	}{
		{"cached 4 kB PROPAGATE", propagate, false, 2, 1024},
		{"cached 4 kB client REQUEST", request, true, 2, 1024},
		{"cached 16-op client bundle", bundle, true, 3, 1024}, // 24 B per op: its slice header
		{"cached 16-op bundle PROPAGATE", bundlePropagate, false, 3, 1024},
		{"PREPARE", prepare.Marshal(nil), false, 2, 1024},
		{"COMMIT", commit.Marshal(nil), false, 2, 1024},
		{"PRE-PREPARE of 8", prePrepare.Marshal(nil), false, 3, 1024},
	} {
		verify := func() {
			var err error
			if tc.fromClient {
				_, err = pre.PreverifyClientFrame(tc.frame, 1)
			} else {
				_, err = pre.PreverifyNodeFrame(tc.frame, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(200, verify); n > tc.allocs {
			t.Errorf("preverify of a %s: %v allocs, want <= %v", tc.name, n, tc.allocs)
		}
		if b := bytesPerRun(200, verify); b >= tc.bytes {
			t.Errorf("preverify of a %s: %d B, want < %d", tc.name, b, tc.bytes)
		}
	}
}
