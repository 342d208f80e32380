// Package udpnet is the UDP transport: one datagram per frame, each
// prefixed with the sender's name. The paper's UDP variant of RBFT showed
// 18-22% lower latency than TCP at the same peak throughput; this transport
// lets the runtime reproduce that deployment. Frames larger than a safe
// datagram payload are rejected. Instance traffic is small, because
// instances order request identifiers, not bodies; REQUEST and PROPAGATE do
// carry bodies, so a client bundles only as many operations as keep the
// PROPAGATE within one datagram (MaxPayload, transport.PayloadBudget).
package udpnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"rbft/internal/transport"
)

// MaxDatagram bounds one UDP frame (name prefix + payload).
const MaxDatagram = 60 * 1024

// Endpoint is a UDP transport endpoint.
type Endpoint struct {
	name string
	conn *net.UDPConn
	recv chan transport.Packet

	mu    sync.RWMutex
	peers map[string]*net.UDPAddr // guarded by mu
	done  bool                    // guarded by mu

	// metrics is set once before the endpoint carries traffic, but after
	// readLoop has started, so readLoop loads it per datagram without a lock;
	// the counters themselves are internally atomic.
	metrics atomic.Pointer[transport.Metrics]

	wg sync.WaitGroup
}

var (
	_ transport.Transport      = (*Endpoint)(nil)
	_ transport.PayloadLimiter = (*Endpoint)(nil)
)

// Listen creates an endpoint named name bound to addr. peers maps peer
// names to their UDP addresses.
func Listen(name, addr string, peers map[string]string) (*Endpoint, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udpnet resolve: %w", err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("udpnet listen: %w", err)
	}
	e := &Endpoint{
		name:  name,
		conn:  conn,
		recv:  make(chan transport.Packet, 4096),
		peers: make(map[string]*net.UDPAddr, len(peers)),
	}
	e.metrics.Store(&transport.Metrics{})
	for k, v := range peers {
		if err := e.AddPeer(k, v); err != nil {
			conn.Close()
			return nil, err
		}
	}
	e.wg.Add(1)
	go e.readLoop()
	return e, nil
}

// Addr returns the bound address.
func (e *Endpoint) Addr() string { return e.conn.LocalAddr().String() }

// AddPeer registers a peer's address.
func (e *Endpoint) AddPeer(name, addr string) error {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("udpnet resolve peer %q: %w", name, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.peers[name] = udpAddr
	return nil
}

// Name implements transport.Transport.
func (e *Endpoint) Name() string { return e.name }

// Packets implements transport.Transport.
func (e *Endpoint) Packets() <-chan transport.Packet { return e.recv }

// MaxPayload implements transport.PayloadLimiter: what one datagram carries
// after the longest name prefix among this endpoint and its peers, so that a
// payload within it fits a datagram whichever of them sends it.
func (e *Endpoint) MaxPayload() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	longest := len(e.name)
	for name := range e.peers {
		longest = max(longest, len(name))
	}
	return MaxDatagram - 2 - longest
}

// SetMetrics installs transport counters. Call before the endpoint carries
// traffic.
func (e *Endpoint) SetMetrics(m transport.Metrics) { e.metrics.Store(&m) }

func (e *Endpoint) readLoop() {
	defer e.wg.Done()
	buf := make([]byte, MaxDatagram+4)
	for {
		n, _, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if n < 2 {
			continue
		}
		nameLen := int(binary.BigEndian.Uint16(buf[:2]))
		if 2+nameLen > n {
			continue
		}
		from := string(buf[2 : 2+nameLen])
		data := make([]byte, n-2-nameLen)
		copy(data, buf[2+nameLen:n])
		if transport.IsBatch(data) {
			if err := transport.SplitBatch(data, func(p []byte) {
				e.deliver(from, p)
			}); err != nil {
				e.metrics.Load().Dropped.Inc() // corrupt batch frame: drop it whole
			}
			continue
		}
		e.deliver(from, data)
	}
}

// deliver enqueues one received payload, dropping on receiver overflow.
func (e *Endpoint) deliver(from string, data []byte) {
	select {
	case e.recv <- transport.Packet{From: from, Data: data}:
		e.metrics.Load().BytesIn.Add(uint64(len(data)))
	default:
		// Drop on overload: UDP semantics.
		e.metrics.Load().Dropped.Inc()
	}
}

// Send implements transport.Transport.
func (e *Endpoint) Send(to string, data []byte) error {
	if 2+len(e.name)+len(data) > MaxDatagram {
		return transport.ErrFrameTooBig
	}
	if err := e.write(to, [][]byte{data}, len(data)); err != nil {
		return err
	}
	e.metrics.Load().BytesOut.Add(uint64(len(data)))
	return nil
}

// SendBatch implements transport.Transport: each run of payloads that fits
// one datagram coalesces into one batch frame carried by that datagram.
func (e *Endpoint) SendBatch(to string, payloads [][]byte) error {
	return transport.Coalesce(payloads, MaxDatagram-2-len(e.name), *e.metrics.Load(), func(run [][]byte, size int) error {
		return e.write(to, run, size)
	})
}

// write sends peer to one datagram: this endpoint's name prefix, then the
// frame of run (size bytes, transport.AppendFrame).
func (e *Endpoint) write(to string, run [][]byte, size int) error {
	e.mu.RLock()
	addr, ok := e.peers[to]
	done := e.done
	e.mu.RUnlock()
	if done {
		return transport.ErrClosed
	}
	if !ok {
		return fmt.Errorf("%w: %q", transport.ErrUnknownPeer, to)
	}
	frame := make([]byte, 0, 2+len(e.name)+size)
	frame = binary.BigEndian.AppendUint16(frame, uint16(len(e.name)))
	frame = append(frame, e.name...)
	_, err := e.conn.WriteToUDP(transport.AppendFrame(frame, run), addr)
	return err
}

// Close implements transport.Transport.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.done {
		e.mu.Unlock()
		return nil
	}
	e.done = true
	e.mu.Unlock()
	e.conn.Close()
	e.wg.Wait()
	close(e.recv)
	return nil
}
