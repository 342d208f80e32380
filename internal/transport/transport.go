// Package transport abstracts the wire for the real-time runtime: an
// endpoint can send byte frames to named peers and receive frames tagged
// with the sender's claimed name. Authentication of the claim happens above,
// at the MAC layer — a transport only provides framing and delivery.
//
// Three implementations exist: memnet (in-process channels, used by examples
// and tests), tcpnet (length-prefixed frames over TCP, the deployment
// default per the paper), and udpnet (datagrams, the paper's lower-latency
// variant).
package transport

import (
	"errors"
	"time"

	"rbft/internal/obs"
)

// Packet is one received frame.
type Packet struct {
	// From is the sender's claimed endpoint name.
	From string
	// Data is the frame payload. It belongs to the receiver and is immutable:
	// the transport never touches the bytes again after delivery, and the
	// receiver must not modify them, because a message decoded from the
	// payload aliases it (message.Decode copies no variable-length field).
	// Whoever retains the message retains the payload — and, for a payload
	// split out of a coalesced batch frame, the frame around it, of which
	// the payload is a capacity-clipped slice: an append to it copies. A
	// payload read from a stream (tcpnet) is likewise a clipped slice of the
	// read chunk it arrived in, and retaining it retains that chunk, up to
	// 64 KiB, which the transport never writes to again.
	Data []byte
}

// Transport is one endpoint's connection to the cluster.
type Transport interface {
	// Send transmits data to the named peer. It may block briefly but must
	// not block indefinitely on a slow peer.
	Send(to string, data []byte) error
	// Packets returns the receive channel. It is closed when the transport
	// closes.
	Packets() <-chan Packet
	// Name returns this endpoint's name.
	Name() string
	// Close releases resources and closes the Packets channel.
	Close() error
}

// BatchSender is implemented by transports that can flush several payloads
// to one peer as a single coalesced wire frame (one length-prefixed batch
// frame on TCP, one datagram on UDP), amortising the per-frame overhead.
// The receiving side splits batch frames back into individual Packets, so
// SendBatch is semantically equivalent to calling Send once per payload —
// only cheaper, on both sides: the Packets of one batch are slices of one
// receiver-owned buffer (see Packet.Data). Implementations fall back to
// per-payload sends when a batch cannot be framed (e.g. it exceeds a
// datagram).
type BatchSender interface {
	// SendBatch transmits the payloads to the named peer, coalescing them
	// into as few wire frames as the transport allows.
	SendBatch(to string, payloads [][]byte) error
}

// PeerCloser is implemented by transports that can enforce a NIC closure:
// frames received from the named peer are discarded until the deadline
// passes. The RBFT flood defence (core.Output.NICCloses) is enforced here,
// at the receive path, so a flooding peer cannot even cost protocol-level
// processing.
type PeerCloser interface {
	// ClosePeer discards inbound frames from peer until the given time.
	ClosePeer(peer string, until time.Time)
}

// Metrics bundles the per-endpoint transport counters. The zero value is
// valid and counts nothing (obs counters are nil-safe), so endpoints carry
// it unconditionally and instrumentation is pay-for-use.
type Metrics struct {
	// Dropped counts inbound frames discarded: receiver overflow, frames
	// from a closed peer, or fault-injection rules.
	Dropped *obs.Counter
	// PeerClosures counts ClosePeer invocations (flood defence activations).
	PeerClosures *obs.Counter
	// BytesIn and BytesOut count payload bytes received and sent.
	BytesIn  *obs.Counter
	BytesOut *obs.Counter
	// BatchesSent counts coalesced batch frames flushed, and
	// FramesCoalesced the payloads they carried (FramesCoalesced/BatchesSent
	// is the mean coalescing factor).
	BatchesSent     *obs.Counter
	FramesCoalesced *obs.Counter
	// BytesSaved counts wire bytes avoided by coalescing: the per-frame
	// overhead (headers, prefixes) the payloads would have paid as
	// individual frames minus what the batch frame actually paid.
	BytesSaved *obs.Counter
}

// NewMetrics resolves the transport counter set from reg, labelled with the
// transport kind ("mem", "tcp", "udp"). A nil registry yields the zero
// Metrics, which counts nothing.
func NewMetrics(reg *obs.Registry, kind string) Metrics {
	return Metrics{
		Dropped:         reg.Counter(obs.LabeledName("rbft_transport_dropped_total", "transport", kind)),
		PeerClosures:    reg.Counter(obs.LabeledName("rbft_transport_peer_closures_total", "transport", kind)),
		BytesIn:         reg.Counter(obs.LabeledName("rbft_transport_bytes_in_total", "transport", kind)),
		BytesOut:        reg.Counter(obs.LabeledName("rbft_transport_bytes_out_total", "transport", kind)),
		BatchesSent:     reg.Counter(obs.LabeledName("rbft_transport_batches_sent_total", "transport", kind)),
		FramesCoalesced: reg.Counter(obs.LabeledName("rbft_transport_frames_coalesced_total", "transport", kind)),
		BytesSaved:      reg.Counter(obs.LabeledName("rbft_transport_bytes_saved_total", "transport", kind)),
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

// PacketOverheadEstimate approximates the wire overhead of carrying one
// payload as its own physical frame (Ethernet + IP + TCP/UDP headers, ~66
// bytes on an Ethernet TCP path). Transports use it to account BytesSaved
// when n payloads coalesce into one frame: (n-1) * PacketOverheadEstimate.
const PacketOverheadEstimate = 66
