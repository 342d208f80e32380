// Package client implements the RBFT client: it signs requests, wraps them
// in MAC authenticators, sends them to every node (open loop — multiple
// requests may be in flight), accepts a result once f+1 valid matching
// REPLY messages arrive, and retransmits on timeout.
package client

import (
	"sort"
	"time"

	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/types"
)

// Config parameterises a client.
type Config struct {
	// Cluster is the 3f+1 cluster configuration.
	Cluster types.Config
	// ID is this client's identity.
	ID types.ClientID
	// RetransmitTimeout is how long to wait for f+1 matching replies before
	// resending the request to all nodes. Zero disables retransmission.
	RetransmitTimeout time.Duration
}

// Completed describes an accepted request result.
type Completed struct {
	ID      types.RequestID
	Result  []byte
	Latency time.Duration
}

// pending tracks one in-flight request.
type pending struct {
	req    *message.Request
	sentAt time.Time
	// readOnly marks a speculative read: it needs a read quorum (2f+1) of
	// matching replies and falls back to normal ordering on refutation or
	// timeout (read.go).
	readOnly bool
	deadline time.Time
	// replies counts nodes per result fingerprint.
	replies map[string]map[types.NodeID]bool
	result  map[string][]byte
}

// Client is an open-loop RBFT client. Not safe for concurrent use; drivers
// serialise access.
type Client struct {
	cfg  Config
	keys *crypto.KeyRing

	nextID  types.RequestID
	pending map[types.RequestID]*pending
}

// New creates a client with its key ring.
func New(cfg Config, keys *crypto.KeyRing) *Client {
	return &Client{
		cfg:     cfg,
		keys:    keys,
		nextID:  1,
		pending: make(map[types.RequestID]*pending),
	}
}

// ID returns the client's identity.
func (c *Client) ID() types.ClientID { return c.cfg.ID }

// Pending returns the number of in-flight requests.
func (c *Client) Pending() int { return len(c.pending) }

// NewRequest builds, signs and registers a request for operation op. The
// caller transmits the returned message to every node.
func (c *Client) NewRequest(op []byte, now time.Time) *message.Request {
	return c.issue(op, false, now, now)
}

// NewReadRequest builds, signs and registers a speculative read-only request
// for operation op: nodes answer it from local state without ordering, and
// the client accepts only once a read quorum (2f+1) of replies matches. On
// refutation or timeout the request falls back to normal ordering (read.go).
// The caller transmits the returned message to every node.
func (c *Client) NewReadRequest(op []byte, now time.Time) *message.Request {
	return c.issue(op, true, now, now)
}

// issue signs and registers one request. sentAt anchors the latency
// measurement: a read falling back to ordering keeps its original send time.
func (c *Client) issue(op []byte, readOnly bool, now, sentAt time.Time) *message.Request {
	req := &message.Request{Client: c.cfg.ID, ID: c.nextID, Op: op, ReadOnly: readOnly}
	c.nextID++
	// One pass over the operation: signature and authenticator both cover it
	// through its digest.
	d := req.OpDigest()
	var buf [message.MaxBodySize]byte
	req.Sig = c.keys.Sign(req.AppendSignedBody(buf[:0], d))
	req.Auth = c.keys.AuthenticatorForNodes(c.cfg.Cluster.N, req.AppendBody(buf[:0], d))
	p := &pending{
		req:      req,
		readOnly: readOnly,
		sentAt:   sentAt,
		replies:  make(map[string]map[types.NodeID]bool),
		result:   make(map[string][]byte),
	}
	if c.cfg.RetransmitTimeout > 0 {
		p.deadline = now.Add(c.cfg.RetransmitTimeout)
	}
	c.pending[req.ID] = p
	return req
}

// OnReply processes a REPLY from a node. It returns the completed request
// once f+1 valid matching replies from distinct nodes have arrived.
func (c *Client) OnReply(rep *message.Reply, from types.NodeID, now time.Time) (Completed, bool) {
	if rep.Client != c.cfg.ID || rep.Node != from {
		return Completed{}, false
	}
	p, ok := c.pending[rep.ID]
	if !ok {
		return Completed{}, false // duplicate or unknown
	}
	var buf [message.MaxBodySize]byte
	if err := c.keys.VerifyNodeMAC(from, rep.AppendBody(buf[:0]), rep.MAC); err != nil {
		return Completed{}, false
	}
	key := string(rep.Result)
	nodes := p.replies[key]
	if nodes == nil {
		nodes = make(map[types.NodeID]bool, c.cfg.Cluster.WeakQuorum())
		p.replies[key] = nodes
		p.result[key] = rep.Result
	}
	nodes[from] = true
	threshold := c.cfg.Cluster.WeakQuorum()
	if p.readOnly {
		// Speculative replies are not execution commitments: any replica may
		// answer from a stale snapshot, so acceptance needs a full read
		// quorum — 2f+1 matching replies guarantee f+1 correct replicas
		// agree on the value at a consistent point.
		threshold = c.cfg.Cluster.Quorum()
	}
	if len(nodes) < threshold {
		if p.readOnly {
			best, distinct := p.tally()
			if _, impossible := readVerdict(best, distinct, c.cfg.Cluster.N, threshold); impossible {
				// No group can reach the read quorum any more (replica
				// states diverged mid-read): make the request due now so the
				// next Tick falls back to normal ordering.
				p.deadline = now
			}
		}
		return Completed{}, false
	}
	delete(c.pending, rep.ID)
	return Completed{
		ID:      rep.ID,
		Result:  p.result[key],
		Latency: now.Sub(p.sentAt),
	}, true
}

// NextWake returns the earliest retransmission deadline, or zero.
func (c *Client) NextWake() time.Time {
	var wake time.Time
	for _, p := range c.pending {
		if p.deadline.IsZero() {
			continue
		}
		if wake.IsZero() || p.deadline.Before(wake) {
			wake = p.deadline
		}
	}
	return wake
}

// Tick returns the requests due for (re)transmission to all nodes: ordinary
// requests are resent as-is; a due speculative read (timed out, or refuted —
// OnReply pulls its deadline forward when no read quorum can form) is
// replaced by a fresh ordered request for the same operation. Due requests
// are processed in request-ID order so drivers see a deterministic sequence.
func (c *Client) Tick(now time.Time) []*message.Request {
	if c.cfg.RetransmitTimeout == 0 {
		return nil
	}
	var due []*pending
	for _, p := range c.pending {
		if !p.deadline.IsZero() && !now.Before(p.deadline) {
			due = append(due, p)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i].req.ID < due[j].req.ID })
	var resend []*message.Request
	for _, p := range due {
		if p.readOnly {
			// Fall back to normal ordering under a fresh ID. A fresh ID
			// (rather than re-flagging the old one) keeps straggling
			// speculative replies from ever being counted toward the ordered
			// request's f+1 acceptance — they belong to a different, deleted
			// pending entry. The original send time is kept so the measured
			// latency covers the whole read, speculation included.
			delete(c.pending, p.req.ID)
			resend = append(resend, c.issue(p.req.Op, false, now, p.sentAt))
			continue
		}
		p.deadline = now.Add(c.cfg.RetransmitTimeout)
		resend = append(resend, p.req)
	}
	return resend
}
