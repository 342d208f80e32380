package client

import (
	"testing"
	"time"

	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/types"
)

func newTestClient(t *testing.T) (*Client, *crypto.KeyStore, types.Config) {
	t.Helper()
	cfg := types.NewConfig(1)
	ks := crypto.NewKeyStore([]byte("client-test"), cfg.N, 4)
	cl := New(Config{Cluster: cfg, ID: 2, RetransmitTimeout: time.Second}, ks.ClientRing(2))
	return cl, ks, cfg
}

func reply(ks *crypto.KeyStore, node types.NodeID, client types.ClientID, id types.RequestID, result string) *message.Reply {
	rep := &message.Reply{Client: client, ID: id, Result: []byte(result), Node: node}
	rep.MAC = ks.NodeRing(node).MACForClient(client, rep.Body())
	return rep
}

func TestRequestWellFormed(t *testing.T) {
	cl, ks, cfg := newTestClient(t)
	now := time.Unix(0, 0)
	req := cl.NewRequest([]byte("op"), now)
	if req.Client != 2 || req.ID != 1 {
		t.Fatalf("unexpected identity: %+v", req)
	}
	// Every node can verify the MAC entry and signature.
	for i := 0; i < cfg.N; i++ {
		ring := ks.NodeRing(types.NodeID(i))
		if err := ring.VerifyClientAuthenticatorEntry(2, types.NodeID(i), req.Body(), req.Auth); err != nil {
			t.Fatalf("node %d MAC: %v", i, err)
		}
		if err := ring.VerifyClientSignature(2, req.AppendSignedBody(nil, req.OpDigest()), req.Sig); err != nil {
			t.Fatalf("node %d signature: %v", i, err)
		}
	}
	// IDs increase.
	if req2 := cl.NewRequest(nil, now); req2.ID != 2 {
		t.Fatalf("second request ID = %d, want 2", req2.ID)
	}
}

func TestAcceptsOnWeakQuorum(t *testing.T) {
	cl, ks, _ := newTestClient(t)
	now := time.Unix(0, 0)
	req := cl.NewRequest([]byte("op"), now)

	if _, ok := cl.OnReply(reply(ks, 0, 2, req.ID, "r"), 0, now.Add(time.Millisecond)); ok {
		t.Fatal("accepted on a single reply")
	}
	done, ok := cl.OnReply(reply(ks, 1, 2, req.ID, "r"), 1, now.Add(2*time.Millisecond))
	if !ok {
		t.Fatal("not accepted on f+1 matching replies")
	}
	if string(done.Result) != "r" || done.Latency != 2*time.Millisecond {
		t.Fatalf("completed = %+v", done)
	}
	if cl.Pending() != 0 {
		t.Fatalf("pending = %d after completion", cl.Pending())
	}
	// Late duplicate is ignored.
	if _, ok := cl.OnReply(reply(ks, 2, 2, req.ID, "r"), 2, now); ok {
		t.Fatal("accepted a completed request twice")
	}
}

func TestMismatchedResultsDoNotCount(t *testing.T) {
	cl, ks, _ := newTestClient(t)
	now := time.Unix(0, 0)
	req := cl.NewRequest(nil, now)
	if _, ok := cl.OnReply(reply(ks, 0, 2, req.ID, "a"), 0, now); ok {
		t.Fatal("accepted on one reply")
	}
	if _, ok := cl.OnReply(reply(ks, 1, 2, req.ID, "b"), 1, now); ok {
		t.Fatal("accepted on mismatched replies")
	}
	// A second matching reply completes.
	if _, ok := cl.OnReply(reply(ks, 2, 2, req.ID, "a"), 2, now); !ok {
		t.Fatal("two matching replies from distinct nodes must complete")
	}
}

func TestDuplicateReplySameNodeDoesNotCount(t *testing.T) {
	cl, ks, _ := newTestClient(t)
	now := time.Unix(0, 0)
	req := cl.NewRequest(nil, now)
	cl.OnReply(reply(ks, 0, 2, req.ID, "r"), 0, now)
	if _, ok := cl.OnReply(reply(ks, 0, 2, req.ID, "r"), 0, now); ok {
		t.Fatal("two replies from the same node must not complete")
	}
}

func TestRejectsBadMACAndSpoofedSender(t *testing.T) {
	cl, ks, _ := newTestClient(t)
	now := time.Unix(0, 0)
	req := cl.NewRequest(nil, now)

	bad := reply(ks, 0, 2, req.ID, "r")
	bad.MAC[0] ^= 0xff
	cl.OnReply(bad, 0, now)

	// Node 1's reply claimed to be from node 0 (spoofed From).
	spoof := reply(ks, 1, 2, req.ID, "r")
	cl.OnReply(spoof, 0, now)

	// Neither should have counted; a single further good reply must not
	// complete (we need two valid ones).
	if _, ok := cl.OnReply(reply(ks, 2, 2, req.ID, "r"), 2, now); ok {
		t.Fatal("invalid replies were counted toward the quorum")
	}
}

func TestRetransmission(t *testing.T) {
	cl, _, _ := newTestClient(t)
	now := time.Unix(0, 0)
	req := cl.NewRequest(nil, now)
	if wake := cl.NextWake(); !wake.Equal(now.Add(time.Second)) {
		t.Fatalf("NextWake = %v, want +1s", wake)
	}
	resend := cl.Tick(now.Add(time.Second))
	if len(resend) != 1 || resend[0].ID != req.ID {
		t.Fatalf("Tick returned %v", resend)
	}
	// Deadline pushed out.
	if got := cl.Tick(now.Add(1500 * time.Millisecond)); len(got) != 0 {
		t.Fatalf("early re-tick resent %d requests", len(got))
	}
}

func TestNoRetransmitWhenDisabled(t *testing.T) {
	cfg := types.NewConfig(1)
	ks := crypto.NewKeyStore([]byte("x"), cfg.N, 4)
	cl := New(Config{Cluster: cfg, ID: 1}, ks.ClientRing(1))
	now := time.Unix(0, 0)
	cl.NewRequest(nil, now)
	if !cl.NextWake().IsZero() {
		t.Fatal("NextWake armed with retransmission disabled")
	}
	if got := cl.Tick(now.Add(time.Hour)); got != nil {
		t.Fatal("Tick resent with retransmission disabled")
	}
}

func TestIgnoresRepliesForOtherClients(t *testing.T) {
	cl, ks, _ := newTestClient(t)
	now := time.Unix(0, 0)
	cl.NewRequest(nil, now)
	other := reply(ks, 0, 3, 1, "r") // addressed to client 3
	if _, ok := cl.OnReply(other, 0, now); ok {
		t.Fatal("accepted a reply for another client")
	}
}
