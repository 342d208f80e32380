package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"hash/fnv"
	"testing"

	"rbft/internal/types"
)

// TestKeyedMACMatchesHMAC: the cached keyed-state evaluation is plain
// HMAC-SHA256 under the pair key, truncated — for preimages shorter than,
// equal to and longer than the Hasher's staging buffer.
func TestKeyedMACMatchesHMAC(t *testing.T) {
	ks := newTestStore()
	ring := ks.NodeRing(0)
	key := pairKey(ring.secret, nodePrincipal(0), nodePrincipal(1))
	for _, n := range []int{0, 1, 97, 127, 128, 129, 4096} {
		data := bytes.Repeat([]byte{byte(n)}, n)
		ref := hmac.New(sha256.New, key)
		ref.Write(data)
		want := ref.Sum(nil)[:MACSize]
		got := ring.MACForNode(1, data)
		if !bytes.Equal(got[:], want) {
			t.Errorf("%d-byte preimage: keyed-state MAC differs from HMAC-SHA256", n)
		}
		if auth := ring.AuthenticatorForNodes(4, data); MAC(auth.Entry(1)) != got {
			t.Errorf("%d-byte preimage: authenticator entry differs from MACForNode", n)
		}
	}
}

// TestHasherStreamsSHA256: pieces written either way digest like their
// concatenation, and a Hasher comes back from the pool empty.
func TestHasherStreamsSHA256(t *testing.T) {
	hdr, body := []byte("header--"), bytes.Repeat([]byte{7}, 1000)
	for i := 0; i < 2; i++ {
		h := NewHasher()
		h.WriteLocal(hdr)
		h.Write(body[:300])
		h.WriteLocal(body[300:]) // longer than the staging buffer
		if h.Sum() != Digest(append(append([]byte(nil), hdr...), body...)) {
			t.Fatalf("round %d: streamed digest differs from one-shot digest", i)
		}
	}
}

// TestFastSumIsFNV1a: the spelled-out checksum is FNV-1a, so simulation tags
// keep their values.
func TestFastSumIsFNV1a(t *testing.T) {
	key, data := []byte("secret"), []byte("simulated body")
	h := fnv.New64a()
	h.Write(key)
	h.Write(data)
	if got := fastSum(key, data); got != h.Sum64() {
		t.Fatalf("fastSum = %#x, FNV-1a = %#x", got, h.Sum64())
	}
}

// authPreimage is the size of a REQUEST's MAC'd body: tag, digest, signature.
const authPreimage = 1 + types.DigestSize + SignatureSize

// TestMACAllocations pins the allocation-free MAC path: a MAC allocates
// nothing and an authenticator only its result, also for callers whose
// preimage sits on the stack.
func TestMACAllocations(t *testing.T) {
	ks := newTestStore()
	ring := ks.NodeRing(0)
	ring.WarmPairKeys(4, 8)
	var sink MAC
	if n := testing.AllocsPerRun(200, func() {
		var preimage [authPreimage]byte
		preimage[0] = 1
		sink = ring.MACForNode(1, preimage[:])
	}); n != 0 {
		t.Errorf("MACForNode: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		var preimage [authPreimage]byte
		preimage[0] = 1
		sink = MAC(ring.AuthenticatorForNodes(4, preimage[:]).Entry(1))
	}); n != 1 {
		t.Errorf("AuthenticatorForNodes: %v allocs, want 1", n)
	}
	_ = sink
}

// BenchmarkAuthenticator builds a 4-node authenticator over a REQUEST-sized
// MAC'd body.
func BenchmarkAuthenticator(b *testing.B) {
	ring := newTestStore().NodeRing(0)
	ring.WarmPairKeys(4, 8)
	preimage := make([]byte, authPreimage)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring.AuthenticatorForNodes(4, preimage)
	}
}
