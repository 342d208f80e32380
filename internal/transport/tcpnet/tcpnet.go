// Package tcpnet is the TCP transport: length-prefixed frames over
// long-lived connections. Per the paper, TCP is the deployment default —
// it provides loss-less FIFO channels, and the cryptography (not the
// network stack) is the bottleneck in BFT protocols.
//
// Each connection begins with a handshake frame carrying the dialer's
// endpoint name; subsequent frames are payloads. Identity is *claimed* at
// this layer and authenticated above it by MACs.
//
// SendBatch flushes several payloads as one batch frame
// (transport.AppendBatch) with a single buffered write — one length prefix,
// one syscall, one TCP segment train — and the receiving side splits batch
// frames back into individual Packets. Inbound frames are read a chunk at a
// time (frameReader): one read syscall and at most one allocation per 64 KiB
// of stream, not per frame, and no lock per frame. Frame writes carry a write
// deadline so a peer that stops draining its socket wedges neither the
// sender goroutine nor the per-connection mutex: the write times out, the
// connection is torn down, and the next send redials. Dials are bounded by
// the same timeout.
package tcpnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"rbft/internal/transport"
)

// defaultWriteTimeout bounds one frame write. A healthy peer drains its
// receive buffer in microseconds; multi-second stalls mean a wedged or dead
// peer, and the protocol tolerates the resulting connection teardown.
const defaultWriteTimeout = 5 * time.Second

// Endpoint is a TCP transport endpoint.
type Endpoint struct {
	name     string
	listener net.Listener
	recv     chan transport.Packet

	mu       sync.Mutex
	peers    map[string]string      // guarded by mu; name -> dial address
	conns    map[string]*lockedConn // guarded by mu; name -> established outbound connection
	accepted map[net.Conn]bool      // guarded by mu; inbound connections, closed on shutdown
	done     bool                   // guarded by mu

	// writeTimeout is set once before the endpoint carries traffic.
	writeTimeout time.Duration

	// metrics is set once before the endpoint carries traffic; the counters
	// themselves are internally atomic.
	metrics transport.Metrics

	wg sync.WaitGroup
}

// lockedConn serialises concurrent frame writes on one connection.
type lockedConn struct {
	mu sync.Mutex
	// conn deliberately carries no guard annotation: the mutex only
	// serialises frame writes, while Close is called lock-free to unblock
	// stuck writers (net.Conn is safe for concurrent use).
	conn net.Conn
	// scratch accumulates one wire frame (length prefix + payload) so every
	// flush is a single Write call. guarded by mu.
	scratch []byte
}

// writeFrame flushes the length-prefixed frame of run (size bytes,
// transport.AppendFrame) with a single write under a deadline. A deadline
// expiry (or any other error) leaves the connection poisoned; callers tear it
// down and redial.
func (lc *lockedConn) writeFrame(run [][]byte, size int, timeout time.Duration) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.scratch = binary.BigEndian.AppendUint32(lc.scratch[:0], uint32(size))
	lc.scratch = transport.AppendFrame(lc.scratch, run)
	if timeout > 0 {
		if err := lc.conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	}
	_, err := lc.conn.Write(lc.scratch)
	return err
}

var _ transport.Transport = (*Endpoint)(nil)

// Listen creates an endpoint named name listening on addr (e.g.
// "127.0.0.1:0"). peers maps every peer name to its dial address; it may be
// extended later with AddPeer.
func Listen(name, addr string, peers map[string]string) (*Endpoint, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet listen: %w", err)
	}
	e := &Endpoint{
		name:         name,
		listener:     l,
		recv:         make(chan transport.Packet, 4096),
		peers:        make(map[string]string, len(peers)),
		conns:        make(map[string]*lockedConn),
		accepted:     make(map[net.Conn]bool),
		writeTimeout: defaultWriteTimeout,
	}
	for k, v := range peers {
		e.peers[k] = v
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr returns the endpoint's listen address (useful with ":0").
func (e *Endpoint) Addr() string { return e.listener.Addr().String() }

// AddPeer registers or updates a peer's dial address.
func (e *Endpoint) AddPeer(name, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.peers[name] = addr
}

// Name implements transport.Transport.
func (e *Endpoint) Name() string { return e.name }

// Packets implements transport.Transport.
func (e *Endpoint) Packets() <-chan transport.Packet { return e.recv }

// SetMetrics installs transport counters. Call before the endpoint carries
// traffic.
func (e *Endpoint) SetMetrics(m transport.Metrics) { e.metrics = m }

// SetWriteTimeout overrides the per-frame write deadline, which also bounds
// a dial (0 disables both). Call before the endpoint carries traffic.
func (e *Endpoint) SetWriteTimeout(d time.Duration) { e.writeTimeout = d }

func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return
		}
		e.mu.Lock()
		if e.done {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.accepted[conn] = true
		e.mu.Unlock()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.serveConn(conn)
			e.mu.Lock()
			delete(e.accepted, conn)
			e.mu.Unlock()
		}()
	}
}

// serveConn reads the handshake then pumps frames into recv, splitting
// coalesced batch frames back into individual packets. Every payload is a
// clipped slice of the connection's current read chunk (see frameReader).
func (e *Endpoint) serveConn(conn net.Conn) {
	defer conn.Close()
	fr := frameReader{r: conn}
	peer, err := fr.next()
	if err != nil {
		return
	}
	from := string(peer)
	for {
		data, err := fr.next()
		if err != nil {
			return
		}
		if transport.IsBatch(data) {
			if err := transport.SplitBatch(data, func(p []byte) {
				e.deliver(from, p)
			}); err != nil {
				e.metrics.Dropped.Inc() // corrupt batch frame: drop it whole
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
		e.metrics.BytesIn.Add(uint64(len(data)))
	default:
		// Receiver overloaded: drop rather than stall the socket and
		// back-pressure the whole cluster.
		e.metrics.Dropped.Inc()
	}
}

// Send implements transport.Transport. It dials lazily and retries once on
// a stale cached connection; a write that trips the deadline tears the
// connection down the same way.
func (e *Endpoint) Send(to string, data []byte) error {
	if len(data) > transport.MaxFrame {
		return transport.ErrFrameTooBig
	}
	err := e.withConn(to, func(lc *lockedConn) error {
		return lc.writeFrame([][]byte{data}, len(data), e.writeTimeout)
	})
	if err != nil {
		return err
	}
	e.metrics.BytesOut.Add(uint64(len(data)))
	return nil
}

// SendBatch implements transport.Transport: each run of payloads that fits
// one frame flushes as one batch frame with a single write.
func (e *Endpoint) SendBatch(to string, payloads [][]byte) error {
	return transport.Coalesce(payloads, transport.MaxFrame, e.metrics, func(run [][]byte, size int) error {
		return e.withConn(to, func(lc *lockedConn) error {
			return lc.writeFrame(run, size, e.writeTimeout)
		})
	})
}

// withConn runs write against the cached connection to the peer, tearing
// down and redialling once on failure (stale cache, wedged writer).
func (e *Endpoint) withConn(to string, write func(*lockedConn) error) error {
	conn, err := e.conn(to)
	if err != nil {
		return err
	}
	if err := write(conn); err != nil {
		e.dropConn(to, conn)
		conn, err = e.conn(to)
		if err != nil {
			return err
		}
		if err := write(conn); err != nil {
			e.dropConn(to, conn)
			return fmt.Errorf("tcpnet send to %q: %w", to, err)
		}
	}
	return nil
}

func (e *Endpoint) conn(to string) (*lockedConn, error) {
	e.mu.Lock()
	if e.done {
		e.mu.Unlock()
		return nil, transport.ErrClosed
	}
	if c, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return c, nil
	}
	addr, ok := e.peers[to]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", transport.ErrUnknownPeer, to)
	}
	// The dial is bounded like a write: a peer that never completes the
	// handshake (blackholed, accept queue full) fails this Send instead of
	// stalling the caller for the kernel's SYN retry budget.
	c, err := (&net.Dialer{Timeout: e.writeTimeout}).Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet dial %q: %w", to, err)
	}
	lc := &lockedConn{conn: c}
	if err := lc.writeFrame([][]byte{[]byte(e.name)}, len(e.name), e.writeTimeout); err != nil {
		c.Close()
		return nil, fmt.Errorf("tcpnet handshake with %q: %w", to, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		c.Close()
		return nil, transport.ErrClosed
	}
	if existing, ok := e.conns[to]; ok {
		c.Close()
		return existing, nil
	}
	e.conns[to] = lc
	return lc, nil
}

func (e *Endpoint) dropConn(to string, conn *lockedConn) {
	e.mu.Lock()
	if e.conns[to] == conn {
		delete(e.conns, to)
	}
	e.mu.Unlock()
	conn.conn.Close()
}

// Close implements transport.Transport.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.done {
		e.mu.Unlock()
		return nil
	}
	e.done = true
	conns := e.conns
	e.conns = map[string]*lockedConn{}
	accepted := make([]net.Conn, 0, len(e.accepted))
	for c := range e.accepted {
		accepted = append(accepted, c)
	}
	e.mu.Unlock()

	e.listener.Close()
	for _, c := range conns {
		c.conn.Close()
	}
	for _, c := range accepted {
		c.Close()
	}
	e.wg.Wait()
	close(e.recv)
	return nil
}
