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
// batch. Not under the race detector, where sync.Pool drops the pooled hashers
// at random and a digest then allocates one.
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

	for _, tc := range []struct {
		name       string
		frame      []byte
		fromClient bool
		allocs     float64
	}{
		{"cached 4 kB PROPAGATE", propagate, false, 2},
		{"cached 4 kB client REQUEST", request, true, 2},
		{"PREPARE", prepare.Marshal(nil), false, 2},
		{"COMMIT", commit.Marshal(nil), false, 2},
		{"PRE-PREPARE of 8", prePrepare.Marshal(nil), false, 3},
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
		if b := bytesPerRun(200, verify); b >= 1024 {
			t.Errorf("preverify of a %s: %d B, want < 1024", tc.name, b)
		}
	}
}
