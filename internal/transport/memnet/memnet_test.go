package memnet

import (
	"bytes"
	"reflect"
	"testing"

	"rbft/internal/obs"
	"rbft/internal/transport"
)

// recv takes the next n packets queued on e without waiting: memnet delivers
// before Send/SendBatch returns.
func recv(t *testing.T, e *Endpoint, n int) []transport.Packet {
	t.Helper()
	pkts := make([]transport.Packet, 0, n)
	for len(pkts) < n {
		select {
		case p := <-e.Packets():
			pkts = append(pkts, p)
		default:
			t.Fatalf("%d packets queued, want %d", len(pkts), n)
		}
	}
	return pkts
}

func requireEmpty(t *testing.T, e *Endpoint) {
	t.Helper()
	if n := len(e.Packets()); n != 0 {
		t.Fatalf("%d packets queued, want none", n)
	}
}

func metricsOn(e *Endpoint) transport.Metrics {
	m := transport.NewMetrics(obs.NewRegistry(), "mem")
	e.SetMetrics(m)
	return m
}

// TestSendHandsOverThePayloads pins what memnet's having no wire means: it
// copies nothing. Send and SendBatch allocate nothing per payload; each
// Packet.Data is the sender's own memory, clipped to its length, so that an
// append by whoever holds it copies instead of overwriting what follows; and a
// drop rule still sees the whole frame, as it would on a real wire.
func TestSendHandsOverThePayloads(t *testing.T) {
	net := NewNetwork()
	a, b := net.Endpoint("a"), net.Endpoint("b")
	if !transport.KeepsPayloads(a) {
		t.Fatal("a memnet endpoint is no transport.PayloadKeeper")
	}
	const whole = "alphabegamma-delta"
	buf := []byte(whole) // the payloads lie back to back in it
	sent := [][]byte{buf[:5], buf[5:7], buf[7:7], buf[7:]}
	var seen [][]byte
	net.SetDropRule(func(from, to string, data []byte) bool {
		seen = append(seen, bytes.Clone(data))
		return false
	})
	if err := a.SendBatch("b", sent); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || !bytes.Equal(seen[0], transport.AppendBatch(nil, sent)) {
		t.Fatalf("drop rule saw %q, want the one batch frame", seen)
	}
	for i, p := range recv(t, b, len(sent)) {
		if p.From != "a" || !bytes.Equal(p.Data, sent[i]) {
			t.Fatalf("payload %d: got %q from %q, want %q from a", i, p.Data, p.From, sent[i])
		}
		if at, want := reflect.ValueOf(p.Data).Pointer(), reflect.ValueOf(sent[i]).Pointer(); at != want {
			t.Fatalf("payload %d at %#x, want the sender's memory at %#x", i, at, want)
		}
		if cap(p.Data) != len(p.Data) {
			t.Fatalf("payload %d: capacity %d reaches past its %d bytes into the next payload", i, cap(p.Data), len(p.Data))
		}
		_ = append(p.Data, "!!"...)
	}
	if string(buf) != whole {
		t.Fatalf("an append to a delivered payload overwrote the sender's buffer: %q", buf)
	}

	net.SetDropRule(nil)
	solo := sent[0]
	drain := func() {
		for len(b.Packets()) > 0 {
			<-b.Packets()
		}
	}
	send := func() {
		if err := a.SendBatch("b", sent); err != nil {
			t.Fatal(err)
		}
		if err := a.Send("b", solo); err != nil {
			t.Fatal(err)
		}
		drain()
	}
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Fatalf("SendBatch of %d payloads and one Send: %v allocs, want 0", len(sent), n)
	}
}

// TestSendBatchDropClosureOverflow: the ways a batch can fail to arrive are
// what they were when each payload was copied on its own.
func TestSendBatchDropClosureOverflow(t *testing.T) {
	batch := [][]byte{[]byte("one"), []byte("two"), []byte("three")}

	t.Run("drop rule sees the whole wire frame once", func(t *testing.T) {
		net := NewNetwork()
		a, b := net.Endpoint("a"), net.Endpoint("b")
		m := metricsOn(b)
		var seen [][]byte
		net.SetDropRule(func(from, to string, data []byte) bool {
			seen = append(seen, bytes.Clone(data))
			return true
		})
		if err := a.SendBatch("b", batch); err != nil {
			t.Fatal(err)
		}
		requireEmpty(t, b)
		if len(seen) != 1 || !bytes.Equal(seen[0], transport.AppendBatch(nil, batch)) {
			t.Fatalf("drop rule saw %q, want the one batch frame", seen)
		}
		if got := m.Dropped.Value(); got != 1 {
			t.Fatalf("dropped counter %d, want 1 (one wire frame)", got)
		}
		net.SetDropRule(func(string, string, []byte) bool { return false })
		if err := a.SendBatch("b", batch); err != nil {
			t.Fatal(err)
		}
		recv(t, b, len(batch))
	})

	t.Run("receiver overflow drops the tail", func(t *testing.T) {
		net := NewNetwork()
		a, b := net.Endpoint("a"), net.Endpoint("b")
		m := metricsOn(b)
		room := cap(b.recv) - 2
		for i := 0; i < room; i++ {
			if err := a.Send("b", []byte{0}); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.SendBatch("b", batch); err != nil {
			t.Fatal(err)
		}
		if got := m.Dropped.Value(); got != 1 {
			t.Fatalf("dropped counter %d, want 1 (the payload past the inbox's depth)", got)
		}
		recv(t, b, room)
		got := recv(t, b, 2)
		if string(got[0].Data) != "one" || string(got[1].Data) != "two" {
			t.Fatalf("got %q %q, want the batch's first two payloads", got[0].Data, got[1].Data)
		}
		requireEmpty(t, b)
	})

	t.Run("closed receiver", func(t *testing.T) {
		net := NewNetwork()
		a, b := net.Endpoint("a"), net.Endpoint("b")
		b.Close()
		if err := a.SendBatch("b", batch); err == nil {
			t.Fatal("SendBatch to a closed endpoint succeeded")
		}
	})
}
