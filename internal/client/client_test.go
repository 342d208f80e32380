package client

import (
	"slices"
	"testing"
	"time"

	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/transport"
	"rbft/internal/transport/udpnet"
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
	return replyBundle(ks, node, client, id, []byte(result))
}

// replyBundle has node answer client's requests id, id+1, … with results in
// one REPLY.
func replyBundle(ks *crypto.KeyStore, node types.NodeID, client types.ClientID, id types.RequestID, results ...[]byte) *message.Reply {
	rep := &message.Reply{Client: client, ID: id, Result: results[0], Rest: results[1:], Node: node}
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

// flushIDs checks that reqs carry the requests first, first+1, … in order,
// each bundle within MaxBundleOps and its PROPAGATE — as node 0 of ks builds
// it — within budget, and returns the id after the last.
func flushIDs(t *testing.T, ks *crypto.KeyStore, cfg types.Config, reqs []*message.Request, first types.RequestID, budget int) types.RequestID {
	t.Helper()
	for _, r := range reqs {
		if r.ID != first {
			t.Fatalf("bundle starts at id %d, want %d", r.ID, first)
		}
		p := &message.Propagate{Req: *r, Node: 0}
		p.Auth = ks.NodeRing(0).AuthenticatorForNodes(cfg.N, p.Body())
		if r.Len() > message.MaxBundleOps || (r.Len() > 1 && p.EncodedSize() > budget) {
			t.Fatalf("bundle of %d ops has a %d B PROPAGATE, over the caps (budget %d)", r.Len(), p.EncodedSize(), budget)
		}
		first += types.RequestID(r.Len())
	}
	return first
}

func bundleSizes(reqs []*message.Request) []int {
	var ks []int
	for _, r := range reqs {
		ks = append(ks, r.Len())
	}
	return ks
}

// TestFlushRespectsCaps: Flush packs what is queued, in id order, into
// bundles of at most MaxBundleOps operations whose PROPAGATE fits the frame
// budget it is given, and sends an operation that fits no bundle alone.
func TestFlushRespectsCaps(t *testing.T) {
	cl, ks, cfg := newTestClient(t)
	ep, err := udpnet.Listen("client/2", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	udp := ep.MaxPayload()
	ep.Close()
	// alone is the largest operation whose PROPAGATE fits udp's budget.
	alone := udp - message.PropagateSize(1, 0, cfg.N)
	now := time.Unix(0, 0)
	next := types.RequestID(1)
	for _, tc := range []struct {
		name   string
		budget int
		ops    []int // op sizes
		want   []int // bundle sizes
	}{
		{"70 small ops", transport.MaxFrame, repeatSize(70, 8), []int{32, 32, 6}},
		{"32 × 4 kB, memnet and tcpnet", transport.MaxFrame, repeatSize(32, 4096), []int{32}},
		{"32 × 4 kB, udpnet", udp, repeatSize(32, 4096), []int{14, 14, 4}},
		{"an op that fits no bundle", udp, []int{8, udp, 8, 8}, []int{1, 1, 2}},
		{"an op that fits only alone", udp, []int{8, alone, 8}, []int{1, 1, 1}},
		// A second op adds its length prefix and the bundle's count (8 B) to
		// the PROPAGATE: the first two fill the budget to the byte.
		{"ops that fill the budget", udp, []int{alone - 8 - 8, 8, 8}, []int{2, 1}},
	} {
		for _, n := range tc.ops {
			if id := cl.Queue(make([]byte, n), now); id != next+types.RequestID(cl.Pending()-1) {
				t.Fatalf("%s: Queue returned id %d", tc.name, id)
			}
		}
		reqs := cl.Flush(now, tc.budget)
		if got := bundleSizes(reqs); !slices.Equal(got, tc.want) {
			t.Fatalf("%s: flushed bundles of %v, want %v", tc.name, got, tc.want)
		}
		next = flushIDs(t, ks, cfg, reqs, next, tc.budget)
		if got := cl.Flush(now, tc.budget); got != nil {
			t.Fatalf("%s: a second flush sent %d frames", tc.name, len(got))
		}
		for id := range cl.pending {
			delete(cl.pending, id)
		}
	}
}

func repeatSize(n, size int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = size
	}
	return s
}

// TestQueuedIDsSequential: ids are handed out in call order across Queue and
// NewRequest, NewReadRequest takes the next id of the reads' own space, and a
// bundle only ever spans consecutive ids — a request signed alone in between
// splits the queue.
func TestQueuedIDsSequential(t *testing.T) {
	cl, _, _ := newTestClient(t)
	now := time.Unix(0, 0)
	a := cl.Queue([]byte("a"), now)
	b := cl.Queue([]byte("b"), now)
	alone := cl.NewRequest([]byte("alone"), now)
	read := cl.NewReadRequest([]byte("GET k"), now)
	c := cl.Queue([]byte("c"), now)
	if a != 1 || b != 2 || alone.ID != 3 || read.ID != readIDs || c != 4 {
		t.Fatalf("ids %d %d %d %d %d, want 1, 2, 3, readIDs, 4", a, b, alone.ID, read.ID, c)
	}
	if alone.Len() != 1 || read.Len() != 1 {
		t.Fatal("NewRequest and NewReadRequest must sign a single request")
	}
	reqs := cl.Flush(now, transport.MaxFrame)
	if got := bundleSizes(reqs); !slices.Equal(got, []int{2, 1}) || reqs[0].ID != 1 || reqs[1].ID != 4 {
		t.Fatalf("flushed %v from ids %d.., want a bundle of ids 1-2 and id 4 alone", got, reqs[0].ID)
	}
	if string(reqs[1].Op) != "c" || reqs[1].ReadOnly {
		t.Fatalf("the read leaked into a flush: %+v", reqs[1])
	}
}

// TestTickResendsEachDueBundleOnce: a due bundle is retransmitted once, as it
// was signed, for as long as any of its requests is pending.
func TestTickResendsEachDueBundleOnce(t *testing.T) {
	cl, ks, _ := newTestClient(t)
	now := time.Unix(0, 0)
	for i := 0; i < 40; i++ {
		cl.Queue([]byte{byte(i)}, now)
	}
	sent := cl.Flush(now, transport.MaxFrame)
	if got := bundleSizes(sent); !slices.Equal(got, []int{32, 8}) {
		t.Fatalf("flushed %v", got)
	}
	if wake := cl.NextWake(); !wake.Equal(now.Add(time.Second)) {
		t.Fatalf("NextWake = %v, want +1s", wake)
	}
	if got := cl.Tick(now.Add(time.Second)); len(got) != 2 || got[0] != sent[0] || got[1] != sent[1] {
		t.Fatalf("Tick resent %v, want each bundle once", bundleSizes(got))
	}
	// Complete the first 8 requests of the first bundle and all of the
	// second: the first is still resent, whole, and only it.
	for id := types.RequestID(1); id <= 40; id++ {
		if id > 8 && id <= 32 {
			continue
		}
		cl.OnReply(reply(ks, 0, 2, id, "r"), 0, now)
		if _, ok := cl.OnReply(reply(ks, 1, 2, id, "r"), 1, now); !ok {
			t.Fatalf("request %d did not complete", id)
		}
	}
	if got := cl.Tick(now.Add(2 * time.Second)); len(got) != 1 || got[0] != sent[0] {
		t.Fatalf("Tick resent %v, want the first bundle once", bundleSizes(got))
	}
	for id := types.RequestID(9); id <= 32; id++ {
		cl.OnReply(reply(ks, 0, 2, id, "r"), 0, now)
		cl.OnReply(reply(ks, 1, 2, id, "r"), 1, now)
	}
	if cl.Pending() != 0 || !cl.NextWake().IsZero() || len(cl.Tick(now.Add(time.Hour))) != 0 {
		t.Fatalf("%d requests pending after every reply", cl.Pending())
	}
}

// TestReadsNeverBundled: reads are signed alone, and two reads falling back
// to ordering in one Tick are re-issued as two single requests. Reads take
// no ordered id, so the queued write is id 1 and the fallbacks 2 and 3.
func TestReadsNeverBundled(t *testing.T) {
	cl, _, _ := newTestClient(t)
	now := time.Unix(0, 0)
	cl.NewReadRequest([]byte("GET a"), now)
	cl.NewReadRequest([]byte("GET b"), now)
	cl.Queue([]byte("PUT c 1"), now)
	if reqs := cl.Flush(now, transport.MaxFrame); len(reqs) != 1 || reqs[0].Len() != 1 || reqs[0].ID != 1 {
		t.Fatalf("flush took reads along: %v", bundleSizes(reqs))
	}
	var fallbacks int
	for _, r := range cl.Tick(now.Add(time.Second)) {
		if r.Len() != 1 || r.ReadOnly {
			t.Fatalf("Tick resent a %d-request frame, read-only %v", r.Len(), r.ReadOnly)
		}
		if r.ID > 1 {
			fallbacks++
		}
	}
	if fallbacks != 2 {
		t.Fatalf("%d reads fell back to ordering, want 2", fallbacks)
	}
}

// TestBundledAndSingleRepliesMix: f+1 is counted per request, whatever frame
// carried each reply — a REPLY of several from one node and REPLYs of one from
// another complete a bundle request by request. OnReply leaves a bundle to
// OnReplies, and a bundle that answers nothing pending costs no MAC check.
func TestBundledAndSingleRepliesMix(t *testing.T) {
	cl, ks, _ := newTestClient(t)
	now := time.Unix(0, 0)
	for i := 0; i < 4; i++ {
		cl.Queue([]byte{byte(i)}, now)
	}
	cl.Flush(now, transport.MaxFrame)
	results := [][]byte{[]byte("r1"), []byte("r2"), []byte("r3"), []byte("r4")}
	if _, ok := cl.OnReply(replyBundle(ks, 0, 2, 1, results...), 0, now); ok {
		t.Fatal("OnReply took a REPLY of several results")
	}
	if done := cl.OnReplies(replyBundle(ks, 0, 2, 1, results...), 0, now, nil); len(done) != 0 {
		t.Fatalf("one node's bundle completed %d requests", len(done))
	}
	for id := types.RequestID(1); id <= 4; id++ {
		done, ok := cl.OnReply(reply(ks, 1, 2, id, string(results[id-1])), 1, now.Add(time.Millisecond))
		if !ok || done.ID != id || string(done.Result) != string(results[id-1]) || done.Latency != time.Millisecond {
			t.Fatalf("request %d: completion %+v, %v", id, done, ok)
		}
	}
	if cl.Pending() != 0 {
		t.Fatalf("%d requests pending", cl.Pending())
	}
	// A late bundle from a third node: everything it answers is done.
	if done := cl.OnReplies(replyBundle(ks, 2, 2, 1, results...), 2, now, nil); len(done) != 0 {
		t.Fatalf("a late bundle completed %d requests", len(done))
	}
}

// TestReplyBundleCompletesInIDOrder: a bundle from a second node completes
// what a first node's bundle started, every request in id order, and a
// request on which the two disagree waits for a third reply.
func TestReplyBundleCompletesInIDOrder(t *testing.T) {
	cl, ks, _ := newTestClient(t)
	now := time.Unix(0, 0)
	for i := 0; i < 3; i++ {
		cl.Queue([]byte{byte(i)}, now)
	}
	cl.Flush(now, transport.MaxFrame)
	cl.OnReplies(replyBundle(ks, 0, 2, 1, []byte("a"), []byte("b"), []byte("c")), 0, now, nil)
	done := cl.OnReplies(replyBundle(ks, 1, 2, 1, []byte("a"), []byte("x"), []byte("c")), 1, now, nil)
	if len(done) != 2 || done[0].ID != 1 || done[1].ID != 3 {
		t.Fatalf("completed %+v, want requests 1 and 3", done)
	}
	done = cl.OnReplies(replyBundle(ks, 2, 2, 1, []byte("a"), []byte("b"), []byte("c")), 2, now, nil)
	if len(done) != 1 || done[0].ID != 2 || string(done[0].Result) != "b" {
		t.Fatalf("completed %+v, want request 2 with b", done)
	}
}
