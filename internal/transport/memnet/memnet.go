// Package memnet is an in-process transport: endpoints exchange frames over
// channels inside one OS process. Used by examples and integration tests
// that want a full RBFT cluster without sockets, and by fault-injection
// tests (it supports per-link drop rules).
package memnet

import (
	"bytes"
	"fmt"
	"sync"
	"time"

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
	done   bool                 // guarded by mu
	barred map[string]time.Time // guarded by mu; peer -> drop-inbound-until deadline
	// metrics is set once, before the endpoint sends — but not before peers
	// can send to it (it is reachable as soon as it exists), so SetMetrics
	// and every inbound-side read hold mu. The counters themselves are
	// internally atomic.
	metrics transport.Metrics
	mu      sync.Mutex
}

var (
	_ transport.Transport   = (*Endpoint)(nil)
	_ transport.PeerCloser  = (*Endpoint)(nil)
	_ transport.BatchSender = (*Endpoint)(nil)
)

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

// ClosePeer implements transport.PeerCloser: inbound frames from peer are
// discarded until the deadline (RBFT flood defence).
func (e *Endpoint) ClosePeer(peer string, until time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.barred == nil {
		e.barred = make(map[string]time.Time)
	}
	e.barred[peer] = until
	e.metrics.PeerClosures.Inc()
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
	e.net.mu.RLock()
	dst, ok := e.net.endpoints[to]
	drop := e.net.dropRule
	e.net.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", transport.ErrUnknownPeer, to)
	}
	if drop != nil && drop(e.name, to, data) {
		dst.noteDropped()
		return nil // silently dropped (fault injection)
	}
	e.metrics.BytesOut.Add(uint64(len(data)))
	buf := make([]byte, len(data))
	copy(buf, data)
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if dst.done {
		return transport.ErrClosed
	}
	if until, ok := dst.barred[e.name]; ok {
		if time.Now().Before(until) {
			dst.metrics.Dropped.Inc()
			return nil // receiver's NIC is closed toward us
		}
		delete(dst.barred, e.name)
	}
	dst.enqueueLocked(e.name, buf)
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

// SendBatch implements transport.BatchSender. The payloads count as one
// coalesced batch frame and arrive as individual Packets that share one
// receiver-owned buffer — what a socket transport's read of a batch frame
// delivers: each Packet.Data is a capacity-clipped slice of it, and whoever
// retains one payload retains the buffer. The wire frame itself is only
// assembled for a fault-injection drop rule to look at — it sees the whole
// frame, as it would on a real wire.
func (e *Endpoint) SendBatch(to string, payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	if len(payloads) == 1 {
		return e.Send(to, payloads[0])
	}
	total := 0
	for _, p := range payloads {
		total += len(p)
	}
	size := transport.BatchSize(len(payloads), total)
	if size > transport.MaxFrame {
		for _, p := range payloads {
			if err := e.Send(to, p); err != nil {
				return err
			}
		}
		return nil
	}
	e.net.mu.RLock()
	dst, ok := e.net.endpoints[to]
	drop := e.net.dropRule
	e.net.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", transport.ErrUnknownPeer, to)
	}
	if drop != nil && drop(e.name, to, transport.AppendBatch(make([]byte, 0, size), payloads)) {
		dst.noteDropped()
		return nil // silently dropped (fault injection)
	}
	e.metrics.BytesOut.Add(uint64(total))
	e.metrics.BatchesSent.Inc()
	e.metrics.FramesCoalesced.Add(uint64(len(payloads)))
	e.metrics.BytesSaved.Add(uint64((len(payloads) - 1) * transport.PacketOverheadEstimate))
	buf := bytes.Join(payloads, nil) // one allocation of exactly total bytes
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if dst.done {
		return transport.ErrClosed
	}
	if until, ok := dst.barred[e.name]; ok {
		if time.Now().Before(until) {
			dst.metrics.Dropped.Inc()
			return nil // receiver's NIC is closed toward us
		}
		delete(dst.barred, e.name)
	}
	for _, p := range payloads {
		dst.enqueueLocked(e.name, buf[:len(p):len(p)])
		buf = buf[len(p):]
	}
	return nil
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
