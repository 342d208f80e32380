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

// TestSendBatchSharesOneBuffer pins what a coalesced flush costs the receiver:
// one buffer, which the payloads are consecutive capacity-clipped slices of —
// the shape a socket transport's read of a batch frame delivers — and which
// the sender no longer reaches.
func TestSendBatchSharesOneBuffer(t *testing.T) {
	net := NewNetwork()
	a, b := net.Endpoint("a"), net.Endpoint("b")
	sent := [][]byte{[]byte("alpha"), []byte("be"), {}, []byte("gamma-delta")}
	want := make([][]byte, len(sent))
	for i, p := range sent {
		want[i] = bytes.Clone(p)
	}
	if err := a.SendBatch("b", sent); err != nil {
		t.Fatal(err)
	}
	for _, p := range sent {
		for i := range p {
			p[i] = 'X' // the sender reuses its pooled encode buffers at once
		}
	}
	got := recv(t, b, len(sent))
	next := reflect.ValueOf(got[0].Data).Pointer() // where the following payload must start
	for i, p := range got {
		if p.From != "a" || !bytes.Equal(p.Data, want[i]) {
			t.Fatalf("payload %d: got %q from %q, want %q from a", i, p.Data, p.From, want[i])
		}
		if cap(p.Data) != len(p.Data) {
			t.Fatalf("payload %d: capacity %d reaches past its %d bytes into the next payload", i, cap(p.Data), len(p.Data))
		}
		if at := reflect.ValueOf(p.Data).Pointer(); at != next {
			t.Fatalf("payload %d starts at %#x, want %#x: not back to back with payload %d in one buffer", i, at, next, i-1)
		}
		next += uintptr(len(p.Data))
	}
	// An append by whoever holds one payload must copy, not overwrite the next.
	_ = append(got[0].Data, "!!"...)
	if !bytes.Equal(got[1].Data, want[1]) {
		t.Fatalf("append to payload 0 changed payload 1 to %q", got[1].Data)
	}

	// A single Send stays a private copy too.
	solo := []byte("solo")
	if err := a.Send("b", solo); err != nil {
		t.Fatal(err)
	}
	solo[0] = 'X'
	if p := recv(t, b, 1)[0]; string(p.Data) != "solo" {
		t.Fatalf("Send delivered %q, want a private copy of \"solo\"", p.Data)
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
