// Package transport abstracts the wire for the real-time runtime: an
// endpoint can send byte frames to named peers and receive frames tagged
// with the sender's claimed name. Authentication of the claim happens above,
// at the MAC layer — a transport only provides framing and delivery. It takes
// no protocol decision either: the RBFT flood defence closes the NIC toward a
// flooding peer in the runtime, which drops that peer's frames as it reads
// them, so every transport gets it.
//
// Three implementations exist: memnet (in-process channels, used by examples
// and tests), tcpnet (length-prefixed frames over TCP, the deployment
// default per the paper), and udpnet (datagrams, the paper's lower-latency
// variant).
package transport

import (
	"errors"

	"rbft/internal/obs"
)

// Packet is one received frame.
type Packet struct {
	// From is the sender's claimed endpoint name.
	From string
	// Data is the frame payload, immutable: neither transport nor sender
	// writes it again (see Send), and the receiver must not, because a
	// message decoded from it aliases it (message.Decode copies no
	// variable-length field). It is a capacity-clipped slice, so an append
	// copies, of memory that whoever retains the message retains: a socket's
	// read chunk (tcpnet, up to 64 KiB) or datagram, or on memnet the
	// sender's own buffer, which the other receivers of a broadcast share.
	Data []byte
}

// Transport is one endpoint's connection to the cluster.
type Transport interface {
	// Send transmits data to the named peer. It may block briefly but must
	// not block indefinitely on a slow peer. The sender must not write data
	// again unless it knows the transport copies it: a PayloadKeeper hands
	// the bytes themselves to the receiver.
	Send(to string, data []byte) error
	// SendBatch transmits the payloads to the named peer, in order, in as few
	// wire frames as the transport's frame limit allows (Coalesce): several
	// payloads share one batch frame (one length-prefixed frame on TCP, one
	// datagram on UDP), amortising the per-frame overhead. The receiving side
	// splits batch frames back into individual Packets, so SendBatch is
	// equivalent to calling Send once per payload, only cheaper.
	SendBatch(to string, payloads [][]byte) error
	// Packets returns the receive channel. It is closed when the transport
	// closes.
	Packets() <-chan Packet
	// Name returns this endpoint's name.
	Name() string
	// Close releases resources and closes the Packets channel.
	Close() error
}

// PayloadLimiter is implemented by transports whose frames carry less than
// MaxFrame bytes of payload, such as a datagram's.
type PayloadLimiter interface {
	// MaxPayload returns the largest payload one frame carries.
	MaxPayload() int
}

// PayloadBudget returns the largest payload tr carries in one frame: MaxFrame
// unless tr is a PayloadLimiter.
func PayloadBudget(tr Transport) int {
	if l, ok := tr.(PayloadLimiter); ok {
		return l.MaxPayload()
	}
	return MaxFrame
}

// PayloadKeeper is a transport that delivers the payloads it is sent, not
// copies: memnet, which has no wire to copy them to. A wrapper around a keeper
// must be one too.
type PayloadKeeper interface {
	Transport
	// KeepsPayloads marks the capability; it does nothing.
	KeepsPayloads()
}

// KeepsPayloads reports whether tr is a PayloadKeeper, so that the memory of
// what it is sent must never be reused.
func KeepsPayloads(tr Transport) bool {
	_, ok := tr.(PayloadKeeper)
	return ok
}

// Metrics bundles the per-endpoint transport counters. The zero value is
// valid and counts nothing (obs counters are nil-safe), so endpoints carry
// it unconditionally and instrumentation is pay-for-use.
type Metrics struct {
	// Dropped counts inbound frames discarded: receiver overflow, corrupt
	// batch frames, or fault-injection rules.
	Dropped *obs.Counter
	// BytesIn and BytesOut count payload bytes received and sent.
	BytesIn  *obs.Counter
	BytesOut *obs.Counter
	// BatchesSent counts coalesced batch frames flushed, and
	// FramesCoalesced the payloads they carried (FramesCoalesced/BatchesSent
	// is the mean coalescing factor).
	BatchesSent     *obs.Counter
	FramesCoalesced *obs.Counter
}

// NewMetrics resolves the transport counter set from reg, labelled with the
// transport kind ("mem", "tcp", "udp"). A nil registry yields the zero
// Metrics, which counts nothing.
func NewMetrics(reg *obs.Registry, kind string) Metrics {
	return Metrics{
		Dropped:         reg.Counter(obs.LabeledName("rbft_transport_dropped_total", "transport", kind)),
		BytesIn:         reg.Counter(obs.LabeledName("rbft_transport_bytes_in_total", "transport", kind)),
		BytesOut:        reg.Counter(obs.LabeledName("rbft_transport_bytes_out_total", "transport", kind)),
		BatchesSent:     reg.Counter(obs.LabeledName("rbft_transport_batches_sent_total", "transport", kind)),
		FramesCoalesced: reg.Counter(obs.LabeledName("rbft_transport_frames_coalesced_total", "transport", kind)),
	}
}

// Errors shared by implementations.
var (
	ErrClosed      = errors.New("transport: closed")
	ErrUnknownPeer = errors.New("transport: unknown peer")
	ErrFrameTooBig = errors.New("transport: frame exceeds limit")
)

// MaxFrame bounds a single frame; larger frames are rejected on both sides.
const MaxFrame = 16 << 20
