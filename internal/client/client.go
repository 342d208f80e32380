// Package client implements the RBFT client: it signs requests — one at a
// time, or the queued ones as a bundle under a single signature — wraps them
// in MAC authenticators, sends them to every node (open loop — multiple
// requests may be in flight), accepts a result once f+1 valid matching REPLY
// messages arrive, and retransmits on timeout.
package client

import (
	"bytes"
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

// vote is one group of matching replies to a pending request: nodes[i] is
// set once node i replied with result, n counts the set entries.
type vote struct {
	result []byte
	nodes  []bool
	n      int
}

// pending tracks one in-flight request.
type pending struct {
	id     types.RequestID
	op     []byte
	sentAt time.Time
	// readOnly marks a speculative read: it needs a read quorum (2f+1) of
	// matching replies and falls back to normal ordering on refutation or
	// timeout (read.go).
	readOnly bool
	// sent is the signed request or bundle that carries the request, nil
	// while it is queued; deadline is when sent is next due for
	// retransmission, the same for every request of a bundle.
	sent     *message.Request
	deadline time.Time
	// votes holds one entry per distinct result, in arrival order; one backs
	// it while every reply agrees.
	votes []vote
	one   [1]vote
}

// Client is an open-loop RBFT client. Not safe for concurrent use; drivers
// serialise access.
type Client struct {
	cfg  Config
	keys *crypto.KeyRing

	// nextID and nextRead number ordered requests and, under readIDs,
	// speculative reads.
	nextID, nextRead types.RequestID
	pending          map[types.RequestID]*pending
	// queued are the requests Queue registered and Flush has not signed yet,
	// in id order.
	queued []*pending
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

// Pending returns the number of in-flight requests, queued ones included.
func (c *Client) Pending() int { return len(c.pending) }

// NewRequest builds, signs and registers a request for operation op, alone —
// a flush of one, whatever is queued. The caller transmits the returned
// message to every node.
func (c *Client) NewRequest(op []byte, now time.Time) *message.Request {
	ps := [1]*pending{c.register(op, false, now)}
	return c.seal(ps[:], now)
}

// NewReadRequest builds, signs and registers a speculative read-only request
// for operation op: nodes answer it from local state without ordering, and
// the client accepts only once a read quorum (2f+1) of replies matches. On
// refutation or timeout the request falls back to normal ordering (read.go).
// Reads are never bundled. The caller transmits the returned message to every
// node.
func (c *Client) NewReadRequest(op []byte, now time.Time) *message.Request {
	ps := [1]*pending{c.register(op, true, now)}
	return c.seal(ps[:], now)
}

// Queue registers a request for operation op under the next id and returns
// the id; Flush signs it. op must not be modified afterwards: it is signed,
// and retransmitted, as it is.
func (c *Client) Queue(op []byte, now time.Time) types.RequestID {
	p := c.register(op, false, now)
	c.queued = append(c.queued, p)
	return p.id
}

// Flush signs everything queued, in id order, as bundles of consecutive ids
// holding at most message.MaxBundleOps operations, each only as large as lets
// the PROPAGATE a node builds from it fit in budget bytes — the frame of the
// transport that carries it (transport.PayloadBudget). An operation that fits
// no bundle goes alone, as a single request. Flush returns the bundles for
// transmission to every node.
func (c *Client) Flush(now time.Time, budget int) []*message.Request {
	var out []*message.Request
	for q := c.queued; len(q) > 0; {
		k, size := 1, len(q[0].op)
		for k < len(q) && k < message.MaxBundleOps && q[k].id == q[0].id+types.RequestID(k) &&
			message.PropagateSize(k+1, size+len(q[k].op), c.cfg.Cluster.N) <= budget {
			size += len(q[k].op)
			k++
		}
		out = append(out, c.seal(q[:k], now))
		q = q[k:]
	}
	clear(c.queued)
	c.queued = c.queued[:0]
	return out
}

// readIDs is the id space of speculative reads, above every ordered id. A
// read is never ordered, so an ordered id it took would be a gap below which
// the nodes' executed watermark for this client could never advance.
const readIDs types.RequestID = 1 << 63

// register enters one request under the next id of its space. sentAt anchors
// the latency measurement: a read falling back to ordering keeps its
// original send time.
func (c *Client) register(op []byte, readOnly bool, sentAt time.Time) *pending {
	p := &pending{id: c.nextID, op: op, readOnly: readOnly, sentAt: sentAt}
	p.votes = p.one[:0]
	if readOnly {
		p.id = readIDs | c.nextRead
		c.nextRead++
	} else {
		c.nextID++
	}
	c.pending[p.id] = p
	return p
}

// seal signs ps — consecutive ids, in order — as one request or bundle and
// arms its retransmission deadline.
func (c *Client) seal(ps []*pending, now time.Time) *message.Request {
	req := &message.Request{Client: c.cfg.ID, ID: ps[0].id, Op: ps[0].op, Rest: make([][]byte, len(ps)-1), ReadOnly: ps[0].readOnly}
	for i, p := range ps[1:] {
		req.Rest[i] = p.op
	}
	// One pass over the operations: signature and authenticator both cover
	// them through the signed digest.
	d, _ := req.Digests()
	var buf [message.MaxBodySize]byte
	req.Sig = c.keys.Sign(req.AppendSignedBody(buf[:0], d))
	req.Auth = c.keys.AuthenticatorForNodes(c.cfg.Cluster.N, req.AppendBody(buf[:0], d))
	for _, p := range ps {
		p.sent = req
		if c.cfg.RetransmitTimeout > 0 {
			p.deadline = now.Add(c.cfg.RetransmitTimeout)
		}
	}
	return req
}

// OnReply processes a single REPLY from a node, the k = 1 case of OnReplies.
// It returns the completed request once f+1 valid matching replies from
// distinct nodes have arrived. A REPLY answering a bundle, which only a
// client that bundles (Queue and Flush) receives, goes to OnReplies.
func (c *Client) OnReply(rep *message.Reply, from types.NodeID, now time.Time) (Completed, bool) {
	if len(rep.Rest) > 0 {
		return Completed{}, false
	}
	var one [1]Completed
	if done := c.OnReplies(rep, from, now, one[:0]); len(done) > 0 {
		return done[0], true
	}
	return Completed{}, false
}

// OnReplies processes a REPLY from a node: one MAC check for
// the frame, then one reply for each request it answers. It appends to done
// every request that now has f+1 valid matching replies from distinct nodes
// (a speculative read 2f+1), in id order, and returns the result.
func (c *Client) OnReplies(rep *message.Reply, from types.NodeID, now time.Time, done []Completed) []Completed {
	if rep.Client != c.cfg.ID || rep.Node != from || from < 0 || int(from) >= c.cfg.Cluster.N {
		return done
	}
	verified := false
	for i := 0; i < rep.Len(); i++ {
		id := rep.ID + types.RequestID(i)
		p, ok := c.pending[id]
		if !ok {
			continue // duplicate or unknown
		}
		if !verified {
			var buf [message.MaxBodySize]byte
			if err := c.keys.VerifyNodeMAC(from, rep.AppendBody(buf[:0]), rep.MAC); err != nil {
				return done
			}
			verified = true
		}
		if result, ok := c.count(p, rep.ResultAt(i), from, now); ok {
			done = append(done, Completed{ID: id, Result: result, Latency: now.Sub(p.sentAt)})
		}
	}
	return done
}

// count adds node from's reply with result to p's tally and reports the
// accepted result once a group reaches p's threshold, dropping p then.
func (c *Client) count(p *pending, result []byte, from types.NodeID, now time.Time) ([]byte, bool) {
	v := p.vote(result, c.cfg.Cluster.N)
	if !v.nodes[from] {
		v.nodes[from] = true
		v.n++
	}
	threshold := c.cfg.Cluster.WeakQuorum()
	if p.readOnly {
		// Speculative replies are not execution commitments: any replica may
		// answer from a stale snapshot, so acceptance needs a full read
		// quorum — 2f+1 matching replies guarantee f+1 correct replicas
		// agree on the value at a consistent point.
		threshold = c.cfg.Cluster.Quorum()
	}
	if v.n < threshold {
		if p.readOnly {
			best, distinct := p.tally()
			if _, impossible := readVerdict(best, distinct, c.cfg.Cluster.N, threshold); impossible {
				// No group can reach the read quorum any more (replica
				// states diverged mid-read): make the request due now so the
				// next Tick falls back to normal ordering.
				p.deadline = now
			}
		}
		return nil, false
	}
	delete(c.pending, p.id)
	return v.result, true
}

// vote returns the group of replies whose result equals result, opening one
// in a cluster of n nodes on first sight.
func (p *pending) vote(result []byte, n int) *vote {
	for i := range p.votes {
		if bytes.Equal(p.votes[i].result, result) {
			return &p.votes[i]
		}
	}
	p.votes = append(p.votes, vote{result: result, nodes: make([]bool, n)})
	return &p.votes[len(p.votes)-1]
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

// Tick returns what is due for (re)transmission to all nodes: each due
// request or bundle is resent once, as it was signed; a due speculative read
// (timed out, or refuted — OnReply pulls its deadline forward when no read
// quorum can form) is replaced by a fresh ordered request for the same
// operation. Due requests are processed in request-ID order so drivers see a
// deterministic sequence.
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
	sort.Slice(due, func(i, j int) bool { return due[i].id < due[j].id })
	var resend []*message.Request
	for _, p := range due {
		if p.readOnly {
			// Fall back to normal ordering under a fresh ID. A fresh ID
			// (rather than re-flagging the old one) keeps straggling
			// speculative replies from ever being counted toward the ordered
			// request's f+1 acceptance — they belong to a different, deleted
			// pending entry. The original send time is kept so the measured
			// latency covers the whole read, speculation included.
			delete(c.pending, p.id)
			ps := [1]*pending{c.register(p.op, false, p.sentAt)}
			resend = append(resend, c.seal(ps[:], now))
			continue
		}
		// A bundle's requests share their deadline and are adjacent in id
		// order, so the bundle goes out once.
		p.deadline = now.Add(c.cfg.RetransmitTimeout)
		if n := len(resend); n == 0 || resend[n-1] != p.sent {
			resend = append(resend, p.sent)
		}
	}
	return resend
}
