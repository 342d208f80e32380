package udpnet

import (
	"bytes"
	"net"
	"testing"
	"time"

	"rbft/internal/obs"
	"rbft/internal/transport"
)

// listenPair starts endpoints a and b on loopback, each a peer of the other,
// with each one's counters resolved from a registry.
func listenPair(t *testing.T) (a, b *Endpoint, am, bm transport.Metrics) {
	t.Helper()
	a, err := Listen("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err = Listen("b", "127.0.0.1:0", nil)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	am, bm = transport.NewMetrics(obs.NewRegistry(), "udp"), transport.NewMetrics(obs.NewRegistry(), "udp")
	a.SetMetrics(am)
	b.SetMetrics(bm)
	if err := a.AddPeer("b", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer("a", a.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b, am, bm
}

// recv waits for the next n packets on e.
func recv(t *testing.T, e *Endpoint, n int) []transport.Packet {
	t.Helper()
	pkts := make([]transport.Packet, 0, n)
	timeout := time.After(5 * time.Second)
	for len(pkts) < n {
		select {
		case p := <-e.Packets():
			pkts = append(pkts, p)
		case <-timeout:
			t.Fatalf("%d packets arrived, want %d", len(pkts), n)
		}
	}
	return pkts
}

// TestLoopbackSendAndSendBatch: single datagrams and a coalesced batch arrive
// intact and in the order sent. Each payload is the receiver's own: the
// sender reusing its buffers once the call returns changes nothing
// delivered, and every payload is capacity-clipped, so an append to one does
// not reach the next.
func TestLoopbackSendAndSendBatch(t *testing.T) {
	a, b, am, _ := listenPair(t)
	first, batch, last := []byte("first"), [][]byte{[]byte("alpha"), {}, []byte("be"), []byte("gamma-delta")}, []byte("last")
	sent := append(append([][]byte{first}, batch...), last)
	var want [][]byte
	for _, p := range sent {
		want = append(want, bytes.Clone(p))
	}
	if err := a.Send("b", first); err != nil {
		t.Fatal(err)
	}
	if err := a.SendBatch("b", batch); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", last); err != nil {
		t.Fatal(err)
	}
	for _, p := range sent {
		for i := range p {
			p[i] = 'X' // the sender reuses its pooled encode buffers at once
		}
	}

	got := recv(t, b, len(want))
	for i, p := range got {
		if p.From != "a" || !bytes.Equal(p.Data, want[i]) {
			t.Fatalf("packet %d: got %q from %q, want %q from a", i, p.Data, p.From, want[i])
		}
		if cap(p.Data) != len(p.Data) {
			t.Errorf("packet %d: capacity %d past its %d bytes", i, cap(p.Data), len(p.Data))
		}
	}
	_ = append(got[1].Data, bytes.Repeat([]byte{'!'}, 16)...) // batch payload 0: "alpha", then "" and "be" in its datagram
	if !bytes.Equal(got[3].Data, want[3]) {
		t.Fatalf("an append to a batch payload changed a later one to %q", got[3].Data)
	}
	if n := am.BatchesSent.Value(); n != 1 {
		t.Fatalf("%d batch datagrams sent, want 1", n)
	}
}

// TestOversizedBatchFallsBackToDatagrams: a batch too large for one datagram
// goes out in as few datagrams as fit it — the first two payloads as one
// batch, the third bare — all of which arrive, in order.
func TestOversizedBatchFallsBackToDatagrams(t *testing.T) {
	a, b, am, _ := listenPair(t)
	payloads := [][]byte{
		bytes.Repeat([]byte{1}, 25*1024),
		bytes.Repeat([]byte{2}, 25*1024),
		bytes.Repeat([]byte{3}, 25*1024),
	}
	if err := a.SendBatch("b", payloads); err != nil {
		t.Fatal(err)
	}
	for i, p := range recv(t, b, len(payloads)) {
		if !bytes.Equal(p.Data, payloads[i]) {
			t.Fatalf("payload %d: %d bytes differ from the %d sent", i, len(p.Data), len(payloads[i]))
		}
	}
	if n, m := am.BatchesSent.Value(), am.FramesCoalesced.Value(); n != 1 || m != 2 {
		t.Fatalf("%d batch datagrams carrying %d payloads, want 1 carrying 2", n, m)
	}
}

// TestBigPayloadLeavesTheRestCoalesced: a flush that holds one datagram-sized
// payload sends that payload bare and still packs the small ones behind it
// into one batch datagram, instead of giving each a datagram of its own.
func TestBigPayloadLeavesTheRestCoalesced(t *testing.T) {
	a, b, am, _ := listenPair(t)
	payloads := [][]byte{bytes.Repeat([]byte{0xee}, a.MaxPayload())}
	for i := 0; i < 10; i++ {
		payloads = append(payloads, bytes.Repeat([]byte{byte(i)}, 200))
	}
	if err := a.SendBatch("b", payloads); err != nil {
		t.Fatal(err)
	}
	for i, p := range recv(t, b, len(payloads)) {
		if !bytes.Equal(p.Data, payloads[i]) {
			t.Fatalf("packet %d: %d bytes differ from payload %d's %d", i, len(p.Data), i, len(payloads[i]))
		}
	}
	datagrams := am.BatchesSent.Value() + uint64(len(payloads)) - am.FramesCoalesced.Value()
	if n, m := am.BatchesSent.Value(), am.FramesCoalesced.Value(); datagrams != 2 || n != 1 || m != 10 {
		t.Fatalf("%d datagrams, %d of them batches carrying %d payloads; want 2: the big payload bare and one batch of 10", datagrams, n, m)
	}
}

// TestCorruptBatchDatagramDroppedWhole: a datagram whose batch payload
// lengths do not add up delivers none of its payloads — not even those
// before the fault — and counts one drop; the endpoint carries on.
func TestCorruptBatchDatagramDroppedWhole(t *testing.T) {
	_, b, _, bm := listenPair(t)
	conn, err := net.Dial("udp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	datagram := func(payload []byte) []byte { // from "c"
		return append([]byte{0, 1, 'c'}, payload...)
	}
	valid := transport.AppendBatch(nil, [][]byte{[]byte("ab"), []byte("cde")})
	for _, payload := range [][]byte{
		valid[:len(valid)-1],             // last payload truncated
		append(bytes.Clone(valid), 0xcc), // trailing garbage
		[]byte("after"),                  // a plain datagram: the endpoint still works
		transport.AppendBatch(nil, [][]byte{[]byte("ok")}),
	} {
		if _, err := conn.Write(datagram(payload)); err != nil {
			t.Fatal(err)
		}
	}
	got := recv(t, b, 2)
	if got[0].From != "c" || string(got[0].Data) != "after" || string(got[1].Data) != "ok" {
		t.Fatalf("got %q then %q from %q, want \"after\" then \"ok\" from c: a corrupt datagram leaked a payload", got[0].Data, got[1].Data, got[0].From)
	}
	if d := bm.Dropped.Value(); d != 2 {
		t.Fatalf("dropped counter %d, want 2 (one per corrupt datagram)", d)
	}
}

// TestMaxPayload: the budget transport.PayloadBudget reports is what one
// datagram carries after the longest name prefix among the endpoint and its
// peers, so a payload of exactly that size crosses in either direction; one
// that leaves no room for the sender's name is refused.
func TestMaxPayload(t *testing.T) {
	a, b, _, _ := listenPair(t)
	if err := a.AddPeer("a-peer-with-a-long-name", "127.0.0.1:9"); err != nil {
		t.Fatal(err)
	}
	budget := transport.PayloadBudget(a)
	if want := MaxDatagram - 2 - len("a-peer-with-a-long-name"); budget != want {
		t.Fatalf("budget %d, want %d", budget, want)
	}
	if got := transport.PayloadBudget(b); got != MaxDatagram-2-1 {
		t.Fatalf("b's budget %d, want %d", got, MaxDatagram-2-1)
	}
	payload := bytes.Repeat([]byte{7}, budget)
	if err := a.Send("b", payload); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("a", payload); err != nil {
		t.Fatal(err)
	}
	if got := recv(t, b, 1)[0].Data; !bytes.Equal(got, payload) {
		t.Fatalf("b received %d B, want %d", len(got), len(payload))
	}
	if got := recv(t, a, 1)[0].Data; !bytes.Equal(got, payload) {
		t.Fatalf("a received %d B, want %d", len(got), len(payload))
	}
	if err := b.Send("a", make([]byte, MaxDatagram-2)); err == nil {
		t.Fatal("b sent a payload one byte over its datagram")
	}
}
