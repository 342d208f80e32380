package crypto

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"rbft/internal/types"
)

func newTestStore() *KeyStore {
	return NewKeyStore([]byte("test-cluster-secret"), 4, 8)
}

func TestPairwiseMACRoundTrip(t *testing.T) {
	ks := newTestStore()
	n0 := ks.NodeRing(0)
	n1 := ks.NodeRing(1)
	data := []byte("hello byzantine world")

	tag := n0.MACForNode(1, data)
	if err := n1.VerifyNodeMAC(0, data, tag); err != nil {
		t.Fatalf("VerifyNodeMAC: %v", err)
	}
	// Tampered data must fail.
	if err := n1.VerifyNodeMAC(0, []byte("tampered"), tag); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered data: got %v, want ErrBadMAC", err)
	}
	// Wrong claimed sender must fail.
	if err := n1.VerifyNodeMAC(2, data, tag); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("wrong sender: got %v, want ErrBadMAC", err)
	}
}

func TestClientMAC(t *testing.T) {
	ks := newTestStore()
	c := ks.ClientRing(3)
	n := ks.NodeRing(2)
	data := []byte("request payload")

	tag := c.MACForNode(2, data)
	if err := n.VerifyClientMAC(3, data, tag); err != nil {
		t.Fatalf("VerifyClientMAC: %v", err)
	}
	// Node->client direction.
	back := n.MACForClient(3, data)
	if err := c.VerifyNodeMAC(2, data, back); err != nil {
		t.Fatalf("client verifying node MAC: %v", err)
	}
}

// TestClientNodeKeySeparation guards against a client and a node with the
// same numeric id sharing key material.
func TestClientNodeKeySeparation(t *testing.T) {
	ks := newTestStore()
	node1 := ks.NodeRing(1)
	client1 := ks.ClientRing(1)
	data := []byte("identity confusion")

	tagFromNode := node1.MACForNode(0, data)
	n0 := ks.NodeRing(0)
	if err := n0.VerifyClientMAC(1, data, tagFromNode); !errors.Is(err, ErrBadMAC) {
		t.Fatal("node 1's MAC must not verify as client 1's MAC")
	}
	tagFromClient := client1.MACForNode(0, data)
	if err := n0.VerifyNodeMAC(1, data, tagFromClient); !errors.Is(err, ErrBadMAC) {
		t.Fatal("client 1's MAC must not verify as node 1's MAC")
	}
}

func TestAuthenticator(t *testing.T) {
	ks := newTestStore()
	sender := ks.NodeRing(0)
	data := []byte("broadcast body")
	auth := sender.AuthenticatorForNodes(4, data)
	if auth.Entries() != 4 || len(auth) != 4*MACSize {
		t.Fatalf("authenticator has %d entries in %d bytes, want 4 in %d", auth.Entries(), len(auth), 4*MACSize)
	}
	for i := 1; i < 4; i++ {
		ring := ks.NodeRing(types.NodeID(i))
		if err := ring.VerifyAuthenticatorEntry(0, types.NodeID(i), data, auth); err != nil {
			t.Errorf("node %d entry: %v", i, err)
		}
	}
	// Nobody verifies the sender's own entry, so it is not computed.
	if MAC(auth.Entry(0)) != (MAC{}) {
		t.Error("sender's own authenticator entry must stay zero")
	}
	// A client is no node: its authenticator fills every entry.
	clientAuth := ks.ClientRing(1).AuthenticatorForNodes(4, data)
	for i := 0; i < clientAuth.Entries(); i++ {
		if err := ks.NodeRing(types.NodeID(i)).VerifyClientMAC(1, data, MAC(clientAuth.Entry(i))); err != nil {
			t.Errorf("client authenticator entry %d: %v", i, err)
		}
	}
	// A node must not accept another node's entry as its own.
	n2 := ks.NodeRing(2)
	swapped := append(Authenticator(nil), auth...)
	copy(swapped.Entry(2), auth.Entry(3))
	if err := n2.VerifyAuthenticatorEntry(0, 2, data, swapped); !errors.Is(err, ErrBadMAC) {
		t.Fatal("swapped authenticator entry must not verify")
	}
	// Short authenticator must be rejected, not panic.
	for _, short := range []Authenticator{auth[:MACSize], auth[:3*MACSize-1]} {
		if err := n2.VerifyAuthenticatorEntry(0, 2, data, short); !errors.Is(err, ErrBadMAC) {
			t.Fatalf("%d-byte authenticator: got %v, want ErrBadMAC", len(short), err)
		}
	}
}

func TestSignatures(t *testing.T) {
	ks := newTestStore()
	client := ks.ClientRing(5)
	node := ks.NodeRing(1)
	data := []byte("signed request")

	sig := client.Sign(data)
	if len(sig) != SignatureSize {
		t.Fatalf("signature size %d, want %d", len(sig), SignatureSize)
	}
	if err := node.VerifyClientSignature(5, data, sig); err != nil {
		t.Fatalf("VerifyClientSignature: %v", err)
	}
	if err := node.VerifyClientSignature(5, []byte("other"), sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered data: got %v, want ErrBadSignature", err)
	}
	if err := node.VerifyClientSignature(6, data, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("wrong signer: got %v, want ErrBadSignature", err)
	}
	if err := node.VerifyClientSignature(5, data, sig[:10]); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("truncated signature: got %v, want ErrBadSignature", err)
	}
	// Unknown principal.
	if err := node.VerifyClientSignature(999, data, sig); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("unknown client: got %v, want ErrUnknownPeer", err)
	}
}

func TestNodeSignatures(t *testing.T) {
	ks := newTestStore()
	n3 := ks.NodeRing(3)
	n0 := ks.NodeRing(0)
	data := []byte("view change")
	sig := n3.Sign(data)
	if err := n0.VerifyNodeSignature(3, data, sig); err != nil {
		t.Fatalf("VerifyNodeSignature: %v", err)
	}
	if err := n0.VerifyNodeSignature(2, data, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatal("signature must be bound to the signer")
	}
}

func TestDigestDeterministic(t *testing.T) {
	a := Digest([]byte("payload"))
	b := Digest([]byte("payload"))
	if a != b {
		t.Fatal("digest must be deterministic")
	}
	c := Digest([]byte("payloae"))
	if a == c {
		t.Fatal("distinct payloads must not collide")
	}
}

func TestKeyStoreDeterministic(t *testing.T) {
	a := NewKeyStore([]byte("s"), 4, 2).NodeRing(1)
	b := NewKeyStore([]byte("s"), 4, 2).NodeRing(1)
	if !bytes.Equal(a.Sign([]byte("x")), b.Sign([]byte("x"))) {
		t.Fatal("same secret must derive same keys")
	}
	c := NewKeyStore([]byte("other"), 4, 2).NodeRing(1)
	if bytes.Equal(a.Sign([]byte("x")), c.Sign([]byte("x"))) {
		t.Fatal("different secrets must derive different keys")
	}
}

// TestMACProperty: any MAC round-trips for random data and fails for any
// flipped bit in the data.
func TestMACProperty(t *testing.T) {
	ks := newTestStore()
	sender := ks.NodeRing(0)
	receiver := ks.NodeRing(1)
	prop := func(data []byte, flip uint16) bool {
		tag := sender.MACForNode(1, data)
		if receiver.VerifyNodeMAC(0, data, tag) != nil {
			return false
		}
		if len(data) == 0 {
			return true
		}
		mutated := append([]byte(nil), data...)
		mutated[int(flip)%len(mutated)] ^= 1 << (flip % 8)
		if bytes.Equal(mutated, data) {
			return true
		}
		return receiver.VerifyNodeMAC(0, mutated, tag) != nil
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
