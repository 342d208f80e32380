package tcpnet

import (
	"bytes"
	"net"
	"testing"
	"time"

	"rbft/internal/obs"
	"rbft/internal/transport"
)

// listenPair starts endpoints a and b on loopback, each a peer of the other,
// with b's counters resolved from a registry.
func listenPair(t *testing.T) (a, b *Endpoint, bm transport.Metrics) {
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
	bm = transport.NewMetrics(obs.NewRegistry(), "tcp")
	b.SetMetrics(bm)
	a.AddPeer("b", b.Addr())
	b.AddPeer("a", a.Addr())
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b, bm
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

// TestLoopbackSendAndSendBatch: single frames and a coalesced batch arrive
// intact and in the order sent. Each payload is the receiver's own: the sender
// reusing its buffers once the call returns changes nothing delivered, and a
// payload split out of a batch is capacity-clipped, so an append to it does not
// reach the next one.
func TestLoopbackSendAndSendBatch(t *testing.T) {
	a, b, _ := listenPair(t)
	first, batch, last := []byte("first"), [][]byte{[]byte("alpha"), {}, []byte("be"), []byte("gamma-delta")}, []byte("last")
	var want [][]byte
	for _, p := range append(append([][]byte{first}, batch...), last) {
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
	for _, p := range append(append([][]byte{first}, batch...), last) {
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
	_ = append(got[1].Data, bytes.Repeat([]byte{'!'}, 16)...) // batch payload 0: "alpha", then "" and "be" in its buffer
	if !bytes.Equal(got[3].Data, want[3]) {
		t.Fatalf("an append to a batch payload changed a later one to %q", got[3].Data)
	}
}

// TestCorruptBatchFrameDroppedWhole: a batch frame whose payload lengths do not
// add up delivers none of its payloads — not even those before the fault — and
// counts one drop; the connection carries on.
func TestCorruptBatchFrameDroppedWhole(t *testing.T) {
	_, b, bm := listenPair(t)
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, []byte("c")); err != nil { // handshake: claim to be "c"
		t.Fatal(err)
	}
	valid := transport.AppendBatch(nil, [][]byte{[]byte("ab"), []byte("cde")})
	for _, frame := range [][]byte{
		valid[:len(valid)-1],             // last payload truncated
		append(bytes.Clone(valid), 0xcc), // trailing garbage
		[]byte("after"),                  // a plain frame: the connection still works
		transport.AppendBatch(nil, [][]byte{[]byte("ok")}),
	} {
		if err := writeFrame(conn, frame); err != nil {
			t.Fatal(err)
		}
	}
	got := recv(t, b, 2)
	if got[0].From != "c" || string(got[0].Data) != "after" || string(got[1].Data) != "ok" {
		t.Fatalf("got %q then %q from %q, want \"after\" then \"ok\" from c: a corrupt frame leaked a payload", got[0].Data, got[1].Data, got[0].From)
	}
	if d := bm.Dropped.Value(); d != 2 {
		t.Fatalf("dropped counter %d, want 2 (one per corrupt frame)", d)
	}
}
