// Package memnet is an in-process transport: endpoints exchange frames over
// channels inside one OS process. Used by examples and integration tests
// that want a full RBFT cluster without sockets, and by fault-injection
// tests (it supports per-link drop rules). Having no wire, it copies nothing:
// a receiver gets the sender's memory (transport.PayloadKeeper).
package memnet

import (
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
		// Overflow drops, like a saturated NIC (the protocol tolerates loss).
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

var _ transport.PayloadKeeper = (*Endpoint)(nil)

// SetMetrics installs transport counters. Call before the endpoint sends.
func (e *Endpoint) SetMetrics(m transport.Metrics) {
	e.mu.Lock()
	e.metrics = m
	e.mu.Unlock()
}

// Name implements transport.Transport.
func (e *Endpoint) Name() string { return e.name }

// Packets implements transport.Transport.
func (e *Endpoint) Packets() <-chan transport.Packet { return e.recv }

// KeepsPayloads implements transport.PayloadKeeper.
func (e *Endpoint) KeepsPayloads() {}

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

// SendBatch implements transport.Transport.
func (e *Endpoint) SendBatch(to string, payloads [][]byte) error {
	return transport.Coalesce(payloads, transport.MaxFrame, e.metrics, func(run [][]byte, _ int) error {
		return e.transmit(to, run)
	})
}

// transmit carries the frame of run (transport.AppendFrame) to peer to. It
// assembles the frame only for a fault-injection drop rule, which sees it
// whole, as on a real wire; the receiver gets each payload itself, clipped to
// its capacity so that an append copies.
func (e *Endpoint) transmit(to string, run [][]byte) error {
	e.net.mu.RLock()
	dst, ok := e.net.endpoints[to]
	drop := e.net.dropRule
	e.net.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", transport.ErrUnknownPeer, to)
	}
	if drop != nil && drop(e.name, to, transport.AppendFrame(nil, run)) {
		dst.mu.Lock()
		dst.metrics.Dropped.Inc() // silently dropped (fault injection)
		dst.mu.Unlock()
		return nil
	}
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if dst.done {
		return transport.ErrClosed
	}
	for _, p := range run {
		dst.enqueueLocked(e.name, p[:len(p):len(p)])
	}
	return nil
}

// enqueueLocked hands the receiver buf, one payload from peer from, dropping
// it on overflow. The caller holds e.mu.
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
