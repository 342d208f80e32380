// Package memnet is an in-process transport: endpoints exchange frames over
// channels inside one OS process. Used by examples and integration tests
// that want a full RBFT cluster without sockets, and by fault-injection
// tests (it supports per-link drop rules).
package memnet

import (
	"bytes"
	"fmt"
	"sync"

	"rbft/internal/transport"
)

// Network is the in-process hub connecting endpoints.
type Network struct {
	mu        sync.RWMutex
	endpoints map[string]*Endpoint // guarded by mu
	// dropRule, when set, drops the frame if it returns true.
	dropRule func(from, to string, data []byte) bool // guarded by mu
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{endpoints: make(map[string]*Endpoint)}
}

// SetDropRule installs a frame-dropping predicate (fault injection). Pass
// nil to clear.
func (n *Network) SetDropRule(rule func(from, to string, data []byte) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropRule = rule
}

// Endpoint creates (or returns) the endpoint with the given name.
func (n *Network) Endpoint(name string) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[name]; ok {
		return ep
	}
	ep := &Endpoint{
		net:  n,
		name: name,
		// A deep buffer so a slow receiver does not deadlock senders that
		// hold the node lock; overflow drops (the protocol tolerates loss).
		recv: make(chan transport.Packet, 4096),
	}
	n.endpoints[name] = ep
	return ep
}

// Endpoint is one in-process transport endpoint.
type Endpoint struct {
	net    *Network
	name   string
	recv   chan transport.Packet
	closed sync.Once
	done   bool // guarded by mu
	// metrics is set once, before the endpoint sends — but not before peers
	// can send to it (it is reachable as soon as it exists), so SetMetrics
	// and every inbound-side read hold mu. The counters themselves are
	// internally atomic.
	metrics transport.Metrics
	mu      sync.Mutex
}

var _ transport.Transport = (*Endpoint)(nil)

// SetMetrics installs transport counters. Call before the endpoint sends.
func (e *Endpoint) SetMetrics(m transport.Metrics) {
	e.mu.Lock()
	e.metrics = m
	e.mu.Unlock()
}

// noteDropped counts an inbound frame a drop rule discarded.
func (e *Endpoint) noteDropped() {
	e.mu.Lock()
	e.metrics.Dropped.Inc()
	e.mu.Unlock()
}

// Name implements transport.Transport.
func (e *Endpoint) Name() string { return e.name }

// Packets implements transport.Transport.
func (e *Endpoint) Packets() <-chan transport.Packet { return e.recv }

// Send implements transport.Transport.
func (e *Endpoint) Send(to string, data []byte) error {
	if len(data) > transport.MaxFrame {
		return transport.ErrFrameTooBig
	}
	if err := e.transmit(to, [][]byte{data}); err != nil {
		return err
	}
	e.metrics.BytesOut.Add(uint64(len(data)))
	return nil
}

// SendBatch implements transport.Transport. The payloads of one coalesced
// frame arrive as individual Packets that share one receiver-owned buffer —
// what a socket transport's read of a batch frame delivers: each Packet.Data
// is a capacity-clipped slice of it, and whoever retains one payload retains
// the buffer.
func (e *Endpoint) SendBatch(to string, payloads [][]byte) error {
	return transport.Coalesce(payloads, transport.MaxFrame, e.metrics, func(run [][]byte, _ int) error {
		return e.transmit(to, run)
	})
}

// transmit carries the frame of run (transport.AppendFrame) to peer to. The
// frame itself is only assembled for a fault-injection drop rule to look at —
// it sees the whole frame, as it would on a real wire; the receiver gets
// run's payloads copied into one buffer (one allocation of exactly their
// total) the sender no longer reaches.
func (e *Endpoint) transmit(to string, run [][]byte) error {
	e.net.mu.RLock()
	dst, ok := e.net.endpoints[to]
	drop := e.net.dropRule
	e.net.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", transport.ErrUnknownPeer, to)
	}
	if drop != nil && drop(e.name, to, transport.AppendFrame(nil, run)) {
		dst.noteDropped()
		return nil // silently dropped (fault injection)
	}
	buf := bytes.Join(run, nil)
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if dst.done {
		return transport.ErrClosed
	}
	for _, p := range run {
		dst.enqueueLocked(e.name, buf[:len(p):len(p)])
		buf = buf[len(p):]
	}
	return nil
}

// enqueueLocked hands the receiver buf, one payload from peer from in memory
// the sender no longer reaches, dropping it on overflow. The caller holds
// e.mu.
func (e *Endpoint) enqueueLocked(from string, buf []byte) {
	select {
	case e.recv <- transport.Packet{From: from, Data: buf}:
		e.metrics.BytesIn.Add(uint64(len(buf)))
	default:
		// Receiver overloaded: drop, like a saturated NIC.
		e.metrics.Dropped.Inc()
	}
}

// Close implements transport.Transport.
func (e *Endpoint) Close() error {
	e.closed.Do(func() {
		e.mu.Lock()
		e.done = true
		close(e.recv)
		e.mu.Unlock()
		e.net.mu.Lock()
		delete(e.net.endpoints, e.name)
		e.net.mu.Unlock()
	})
	return nil
}
