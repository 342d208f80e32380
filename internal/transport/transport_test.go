package transport_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"rbft/internal/transport"
	"rbft/internal/transport/memnet"
	"rbft/internal/transport/tcpnet"
	"rbft/internal/transport/udpnet"
)

// harness builds a pair of connected endpoints for each implementation.
type pairFn func(t *testing.T) (a, b transport.Transport)

func memPair(t *testing.T) (transport.Transport, transport.Transport) {
	t.Helper()
	net := memnet.NewNetwork()
	return net.Endpoint("a"), net.Endpoint("b")
}

func tcpPair(t *testing.T) (transport.Transport, transport.Transport) {
	t.Helper()
	a, err := tcpnet.Listen("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tcpnet.Listen("b", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer("b", b.Addr())
	b.AddPeer("a", a.Addr())
	return a, b
}

func udpPair(t *testing.T) (transport.Transport, transport.Transport) {
	t.Helper()
	a, err := udpnet.Listen("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := udpnet.Listen("b", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddPeer("b", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer("a", a.Addr()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func impls() map[string]pairFn {
	return map[string]pairFn{
		"memnet": memPair,
		"tcpnet": tcpPair,
		"udpnet": udpPair,
	}
}

func recvOne(t *testing.T, tr transport.Transport) transport.Packet {
	t.Helper()
	select {
	case p, ok := <-tr.Packets():
		if !ok {
			t.Fatal("packets channel closed")
		}
		return p
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for packet")
	}
	return transport.Packet{}
}

func TestSendReceive(t *testing.T) {
	for name, mk := range impls() {
		t.Run(name, func(t *testing.T) {
			a, b := mk(t)
			defer a.Close()
			defer b.Close()
			want := []byte("hello rbft")
			if err := a.Send("b", want); err != nil {
				t.Fatal(err)
			}
			p := recvOne(t, b)
			if p.From != "a" || !bytes.Equal(p.Data, want) {
				t.Fatalf("got %q from %q", p.Data, p.From)
			}
			// And the reverse direction.
			if err := b.Send("a", []byte("pong")); err != nil {
				t.Fatal(err)
			}
			p = recvOne(t, a)
			if p.From != "b" || string(p.Data) != "pong" {
				t.Fatalf("got %q from %q", p.Data, p.From)
			}
		})
	}
}

func TestManyFramesInOrderTCP(t *testing.T) {
	// TCP guarantees FIFO; memnet does too.
	for _, name := range []string{"memnet", "tcpnet"} {
		mk := impls()[name]
		t.Run(name, func(t *testing.T) {
			a, b := mk(t)
			defer a.Close()
			defer b.Close()
			const n = 500
			for i := 0; i < n; i++ {
				if err := a.Send("b", []byte(fmt.Sprintf("m%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				p := recvOne(t, b)
				if want := fmt.Sprintf("m%04d", i); string(p.Data) != want {
					t.Fatalf("frame %d: got %q, want %q", i, p.Data, want)
				}
			}
		})
	}
}

func TestUnknownPeer(t *testing.T) {
	for name, mk := range impls() {
		t.Run(name, func(t *testing.T) {
			a, b := mk(t)
			defer a.Close()
			defer b.Close()
			if err := a.Send("nobody", []byte("x")); !errors.Is(err, transport.ErrUnknownPeer) {
				t.Fatalf("Send to unknown peer: %v, want ErrUnknownPeer", err)
			}
		})
	}
}

func TestCloseIdempotentAndChannelCloses(t *testing.T) {
	for name, mk := range impls() {
		t.Run(name, func(t *testing.T) {
			a, b := mk(t)
			defer b.Close()
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case _, ok := <-a.Packets():
				if ok {
					t.Fatal("expected closed channel")
				}
			case <-time.After(time.Second):
				t.Fatal("packets channel not closed")
			}
		})
	}
}

func TestLargeFrameTCP(t *testing.T) {
	a, b := tcpPair(t)
	defer a.Close()
	defer b.Close()
	big := bytes.Repeat([]byte{0xab}, 1<<20)
	if err := a.Send("b", big); err != nil {
		t.Fatal(err)
	}
	p := recvOne(t, b)
	if !bytes.Equal(p.Data, big) {
		t.Fatal("1MB frame corrupted")
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	a, b := tcpPair(t)
	defer a.Close()
	defer b.Close()
	huge := make([]byte, transport.MaxFrame+1)
	if err := a.Send("b", huge); !errors.Is(err, transport.ErrFrameTooBig) {
		t.Fatalf("oversized frame: %v, want ErrFrameTooBig", err)
	}
	// UDP has a much smaller datagram bound.
	ua, ub := udpPair(t)
	defer ua.Close()
	defer ub.Close()
	if err := ua.Send("b", make([]byte, udpnet.MaxDatagram)); !errors.Is(err, transport.ErrFrameTooBig) {
		t.Fatalf("oversized datagram: %v, want ErrFrameTooBig", err)
	}
}

func TestMemnetDropRule(t *testing.T) {
	net := memnet.NewNetwork()
	a, b := net.Endpoint("a"), net.Endpoint("b")
	defer a.Close()
	defer b.Close()
	net.SetDropRule(func(from, to string, data []byte) bool { return true })
	if err := a.Send("b", []byte("dropped")); err != nil {
		t.Fatal(err)
	}
	net.SetDropRule(nil)
	if err := a.Send("b", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	p := recvOne(t, b)
	if string(p.Data) != "kept" {
		t.Fatalf("got %q, want the undropped frame", p.Data)
	}
}

// TestSendBatchDeliversIndividually checks the SendBatch contract on every
// transport: a coalesced batch arrives as one Packet per payload, in order,
// indistinguishable from individual sends.
func TestSendBatchDeliversIndividually(t *testing.T) {
	for name, mk := range impls() {
		t.Run(name, func(t *testing.T) {
			a, b := mk(t)
			defer a.Close()
			defer b.Close()
			want := [][]byte{[]byte("alpha"), []byte("beta"), {0x01}, []byte("gamma")}
			if err := a.SendBatch("b", want); err != nil {
				t.Fatal(err)
			}
			for i, w := range want {
				p := recvOne(t, b)
				if p.From != "a" || !bytes.Equal(p.Data, w) {
					t.Fatalf("payload %d: got %q from %q, want %q from a", i, p.Data, p.From, w)
				}
			}
			// Degenerate batches: empty is a no-op, singleton a plain send.
			if err := a.SendBatch("b", nil); err != nil {
				t.Fatal(err)
			}
			if err := a.SendBatch("b", [][]byte{[]byte("solo")}); err != nil {
				t.Fatal(err)
			}
			if p := recvOne(t, b); string(p.Data) != "solo" {
				t.Fatalf("got %q, want the singleton payload", p.Data)
			}
		})
	}
}

// TestSendBatchOversizedFallsBack checks that a batch too large for one wire
// frame degrades to per-payload sends instead of failing.
func TestSendBatchOversizedFallsBack(t *testing.T) {
	a, b := udpPair(t)
	defer a.Close()
	defer b.Close()
	// Three payloads, each datagram-sized on its own terms, together beyond
	// one datagram.
	payloads := [][]byte{
		bytes.Repeat([]byte{1}, 30*1024),
		bytes.Repeat([]byte{2}, 30*1024),
		bytes.Repeat([]byte{3}, 30*1024),
	}
	if err := a.SendBatch("b", payloads); err != nil {
		t.Fatal(err)
	}
	seen := map[byte]int{}
	for i := 0; i < len(payloads); i++ {
		p := recvOne(t, b)
		seen[p.Data[0]] = len(p.Data)
	}
	for _, payload := range payloads {
		if seen[payload[0]] != len(payload) {
			t.Fatalf("payload %d missing or truncated: %v", payload[0], seen)
		}
	}
}

// TestTCPWriteDeadlineUnwedgesSender pins the robustness fix for a wedged
// peer: a connection whose remote end stops reading must not block the
// sender forever under the connection mutex — the write deadline trips, the
// connection is torn down, and Send returns an error in bounded time.
func TestTCPWriteDeadlineUnwedgesSender(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Accept connections and read only the handshake, never the frames, so
	// the kernel buffers fill and writes stall. Keep conns referenced so
	// finalizers cannot close them behind our back.
	var mu sync.Mutex
	var conns []net.Conn
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()

	a, err := tcpnet.Listen("a", "127.0.0.1:0", map[string]string{"wedged": ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetWriteTimeout(200 * time.Millisecond)

	// Pour 64 MB at the non-reading peer. Without write deadlines the kernel
	// buffers fill and Send blocks forever under the connection mutex; with
	// them every Send returns in bounded time (succeeding, or erroring after
	// a redial) and wedged connections are torn down and redialled.
	done := make(chan struct{})
	go func() {
		defer close(done)
		payload := bytes.Repeat([]byte{0xee}, 1<<20)
		for i := 0; i < 64; i++ {
			_ = a.Send("wedged", payload) // errors are fine; blocking is not
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Send wedged on a non-reading peer: write deadline did not unblock it")
	}
	mu.Lock()
	redials := len(conns)
	mu.Unlock()
	if redials < 2 {
		t.Fatalf("sender never tore down the wedged connection (dialled %d times, want >= 2)", redials)
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	a, err := tcpnet.Listen("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tcpnet.Listen("b", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addrB := b.Addr()
	a.AddPeer("b", addrB)
	if err := a.Send("b", []byte("one")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	// Restart b on the same address.
	b.Close()
	b2, err := tcpnet.Listen("b", addrB, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	// The cached connection is stale; Send must recover (first send may be
	// lost in the reset window, so try a few times).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.Send("b", []byte("two")); err == nil {
			select {
			case p := <-b2.Packets():
				if string(p.Data) == "two" {
					return
				}
			case <-time.After(200 * time.Millisecond):
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("never recovered after peer restart")
		}
	}
}
