// Package pbft implements one RBFT protocol instance: a PBFT-style
// three-phase ordering state machine (PRE-PREPARE / PREPARE / COMMIT) with
// request batching, watermarks, checkpoints, and an externally triggered view
// change.
//
// An Instance is a pure state machine: it performs no I/O, spawns no
// goroutines and never reads the wall clock. Each of the five entry points
// (AddRequest or AddRecord, OnMessage, Tick, StartViewChange, ProposeFiller)
// takes the current time and returns the one Output of the step (messages to
// send, batches delivered in sequence order, records to persist). It owns that
// value: every handler below it takes the *Output and appends to it in call
// order, and validates its input before its first append, so an entry point
// that returns an error returns a zero Output. Drivers — the real-time
// runtime and the discrete-event simulator — execute those effects. This is
// what lets the same protocol code run over live TCP and inside the
// deterministic simulator that regenerates the paper's figures. Per-request
// state lives in the node's request store (Store, requests.go).
//
// Differences from a standalone PBFT deployment, per the RBFT paper:
//   - an instance never initiates a view change by itself; view changes are
//     commanded by the node's instance-change mechanism and apply to every
//     instance at once;
//   - the instance orders request identifiers (client id, request id,
//     digest), never request bodies;
//   - a replica sends PREPARE for a batch only once its node has collected
//     f+1 PROPAGATE copies of every request in the batch (the node signals
//     this through AddRequest).
package pbft

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"time"

	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// Config parameterises one protocol instance replica.
type Config struct {
	// Cluster is the 3f+1 cluster configuration.
	Cluster types.Config
	// Instance identifies which of the f+1 instances this replica belongs to.
	Instance types.InstanceID
	// Node is the node hosting this replica.
	Node types.NodeID
	// BatchSize is the maximum number of request refs per PRE-PREPARE.
	BatchSize int
	// BatchTimeout bounds how long the primary waits to fill a batch.
	BatchTimeout time.Duration
	// CheckpointInterval is the number of sequence numbers between
	// checkpoints.
	CheckpointInterval types.SeqNum
	// WatermarkWindow is the width of the sequence window above the last
	// stable checkpoint within which ordering may proceed.
	WatermarkWindow types.SeqNum
	// Durable makes the replica attach wal.Records to its Outputs for every
	// state transition that must survive a crash (see durability.go). The
	// driver must persist an output's records before transmitting its
	// messages. Off by default: a diskless replica pays nothing.
	Durable bool
	// Store is the node's request store (requests.go); nil gives the replica
	// one of its own.
	Store Store
}

func (c *Config) withDefaults() Config {
	out := *c
	out.BatchSize = cmp.Or(out.BatchSize, 64)
	out.BatchTimeout = cmp.Or(out.BatchTimeout, types.DefaultBatchTimeout)
	out.CheckpointInterval = cmp.Or(out.CheckpointInterval, 128)
	out.WatermarkWindow = cmp.Or(out.WatermarkWindow, 4*out.CheckpointInterval)
	return out
}

// Behavior injects Byzantine behaviour into a replica for the attack
// experiments. The zero value is a correct replica.
type Behavior struct {
	// Silent suppresses all outbound protocol messages (a crashed or
	// non-participating faulty replica).
	Silent bool
	// PrePrepareDelay makes a malicious primary hold every PRE-PREPARE for
	// the given duration before sending it.
	PrePrepareDelay time.Duration
	// ProposeRate throttles a malicious primary to at most this many
	// request refs per second (token bucket), the precise pacing a smart
	// worst-attack-2 primary uses to sit just above the Δ detection
	// threshold.
	ProposeRate float64
	// DelayClients makes an unfair primary delay proposals containing
	// requests from these clients by PrePrepareDelay while serving everyone
	// else promptly.
	DelayClients map[types.ClientID]bool
}

// Batch is a delivered ordered batch.
type Batch struct {
	Instance types.InstanceID
	Seq      types.SeqNum
	View     types.View
	Refs     []types.RequestRef
	// Recs holds Refs[i]'s record at i, for the node; read-only.
	Recs []Record
}

// Outbound is a message to transmit. A nil To means every other node.
type Outbound struct {
	To  []types.NodeID
	Msg message.Message
}

// Output aggregates the effects of one input; the order within each slice is
// the order in which the replica produced the effect.
type Output struct {
	// Msgs are messages to transmit.
	Msgs []Outbound
	// Delivered are batches that became committed, in sequence order.
	Delivered []Batch
	// Records are durability records the driver must make crash-safe
	// *before* transmitting Msgs (only populated when Config.Durable).
	Records []wal.Record
}

func (o *Output) send(to []types.NodeID, m message.Message) {
	o.Msgs = append(o.Msgs, Outbound{To: to, Msg: m})
}

// slot is one sequence number's place in the replica's log (Instance.log).
type slot struct {
	seq types.SeqNum // the sequence number held; 0 when none
	phase
	// deliveredIn is the view the batch was delivered in, which FETCH serves
	// even after a NEW-VIEW re-issues the sequence in a later view.
	deliveredIn types.View
	// promisedPrepare and promisedCommit are what Restore replayed.
	promisedPrepare, promisedCommit promise
	// prepares, commits and fetched are votes indexed by NodeID: the digest
	// a node's PREPARE, COMMIT or FETCH-RESP carried. Zero means no vote.
	prepares, commits, fetched []types.Digest
}

// phase is the three-phase state of a slot's current proposal.
type phase struct {
	view   types.View
	digest types.Digest
	batch  []types.RequestRef
	// recs holds, per batch ref, its record (nil: decided), resolved at accept
	// or delivery, and goes once its entries are retired; a record kept may
	// have gone since, so delivery checks it (Holds) and the others go by the
	// replica's entry alone.
	recs      []Record
	havePP    bool
	sentPrep  bool
	sentComm  bool
	delivered bool
	// waiting counts batch refs the node has not yet collected f+1
	// PROPAGATEs for; PREPARE is withheld until it reaches zero.
	waiting int
	// ppAt/prepAt anchor the prepare-quorum and commit-quorum spans: when
	// the PRE-PREPARE was accepted and when the prepared state was reached.
	// Only maintained when the tracer wants spans.
	ppAt, prepAt time.Time
}

// Instance is one protocol-instance replica. Not safe for concurrent use;
// drivers serialise access.
type Instance struct {
	cfg      Config
	behavior Behavior
	keys     *crypto.KeyRing

	view         types.View
	inViewChange bool

	// Primary state.
	nextSeq       types.SeqNum // next sequence number to assign
	pending       []types.RequestRef
	batchDeadline time.Time

	store Store // the per-request state (requests.go)

	// Replica state. log is a ring of slots indexed by seq % len(log): the
	// window being ordered and the delivered batches retained for FETCH.
	log           []slot
	lastDelivered types.SeqNum
	stableSeq     types.SeqNum // last stable checkpoint
	logDigest     types.Digest // running digest chain of delivered batches
	// checkpoints holds the CHECKPOINT votes, indexed by NodeID, for each
	// sequence in (stableSeq, lastDelivered+len(log)].
	checkpoints map[types.SeqNum][]types.Digest

	// viewChanges holds each node's latest VIEW-CHANGE, indexed by NodeID.
	viewChanges []*message.ViewChange

	// Catch-up state (see fetch.go).
	fetch *fetchState

	// Crash-recovery state (see durability.go): the accumulator used while
	// a replay is in progress.
	restore *restoreState

	// Delayed PRE-PREPAREs (malicious primary attack hook).
	delayed    []delayedSend
	tokens     float64
	lastRefill time.Time

	// tr receives phase-transition events (pre-prepare proposed, prepared,
	// committed). Node identity is stamped by the installer's wrapper.
	tr obs.Tracer
	// spans caches obs.WantSpans(tr): whether to maintain span anchors and
	// emit EvSpan events.
	spans bool
	// pendingSince is when the oldest pending ref was enqueued (propose-span
	// anchor); zero when pending is empty or spans are off.
	pendingSince time.Time
}

type delayedSend struct {
	at  time.Time
	msg *message.PrePrepare
	// since carries the propose-span anchor across the attack delay, so the
	// delay shows up in the master's propose stage.
	since time.Time
}

// New creates a protocol-instance replica. Its log is allocated here, once:
// (retainDeliveredFactor+1) × WatermarkWindow slots and their vote vectors.
func New(cfg Config, keys *crypto.KeyRing) *Instance {
	c := cfg.withDefaults()
	in := &Instance{
		cfg:         c,
		keys:        keys,
		nextSeq:     1,
		store:       cmp.Or[Store](c.Store, &ownStore{recs: make(map[types.RequestRef]*ownRecord)}),
		log:         make([]slot, (retainDeliveredFactor+1)*c.WatermarkWindow),
		checkpoints: make(map[types.SeqNum][]types.Digest),
		viewChanges: make([]*message.ViewChange, c.Cluster.N),
		tr:          obs.Nop{},
	}
	n := c.Cluster.N
	votes := make([]types.Digest, 3*n*len(in.log))
	for i := range in.log {
		v := votes[3*n*i:]
		in.log[i].prepares, in.log[i].commits, in.log[i].fetched = v[:n:n], v[n:2*n:2*n], v[2*n:3*n:3*n]
	}
	return in
}

// SetBehavior installs Byzantine behaviour (attack experiments only).
func (in *Instance) SetBehavior(b Behavior) { in.behavior = b }

// SetTracer installs an event sink for phase transitions. core.Node passes
// its node-stamped tracer down; the replica adds the instance id.
func (in *Instance) SetTracer(t obs.Tracer) {
	in.tr = obs.OrNop(t)
	in.spans = obs.WantSpans(in.tr)
}

// View returns the current view.
func (in *Instance) View() types.View { return in.view }

// LastDelivered returns the highest contiguously delivered sequence number.
func (in *Instance) LastDelivered() types.SeqNum { return in.lastDelivered }

// Primary returns the node hosting this instance's primary in the current
// view.
func (in *Instance) Primary() types.NodeID {
	return in.cfg.Cluster.PrimaryOf(in.view, in.cfg.Instance)
}

// IsPrimary reports whether this replica is the instance primary.
func (in *Instance) IsPrimary() bool { return in.Primary() == in.cfg.Node }

// NextWake returns the earliest time at which Tick must be called, or the
// zero time if no timer is armed.
func (in *Instance) NextWake() time.Time {
	wake := in.batchDeadline
	for _, d := range in.delayed {
		if wake.IsZero() || d.at.Before(wake) {
			wake = d.at
		}
	}
	if f := in.fetch; f != nil && !f.deadline.IsZero() && (wake.IsZero() || f.deadline.Before(wake)) {
		wake = f.deadline
	}
	return wake
}

// AddRequest informs the replica that its node has collected f+1 PROPAGATE
// copies of the request and it is ready for ordering.
func (in *Instance) AddRequest(ref types.RequestRef, now time.Time) Output {
	if rec := in.store.Request(in.cfg.Instance, ref); rec != nil {
		return in.AddRecord(ref, rec, now)
	}
	return Output{}
}

// AddRecord is AddRequest for a node that holds ref's record rec.
func (in *Instance) AddRecord(ref types.RequestRef, rec Record, now time.Time) Output {
	var out Output
	r := rec.Entry(in.cfg.Instance)
	if r.known {
		return out
	}
	r.known = true

	// Release the PRE-PREPAREs that were waiting on this request.
	for _, w := range r.waiters {
		if s := in.at(w.seq); s.seq == w.seq && s.view == w.view {
			s.waiting--
			if s.waiting == 0 {
				in.maybePrepare(&out, s, now)
			}
		}
	}
	r.waiters = r.waiters[:0]

	// A ref becomes known once, so the primary queues it once; a view change
	// re-queues what is still in flight (installNewView).
	if in.IsPrimary() && !in.inViewChange && r.at == 0 {
		in.enqueue(&out, ref, now)
	}
	return out
}

// enqueue adds a ref to the primary's pending batch and cuts a batch when
// full, otherwise arms the batch timer.
func (in *Instance) enqueue(out *Output, ref types.RequestRef, now time.Time) {
	if in.spans && len(in.pending) == 0 {
		in.pendingSince = now
	}
	in.pending = append(in.pending, ref)
	if len(in.pending) >= in.cfg.BatchSize {
		in.cutBatch(out, now)
		return
	}
	if in.batchDeadline.IsZero() {
		in.batchDeadline = now.Add(in.cfg.BatchTimeout)
	}
}

// Tick fires timers: the batch timeout and the release of attack-delayed
// PRE-PREPAREs.
func (in *Instance) Tick(now time.Time) Output {
	var out Output
	if !in.batchDeadline.IsZero() && !now.Before(in.batchDeadline) {
		in.cutBatch(&out, now)
	}
	if len(in.delayed) > 0 {
		keep := in.delayed[:0]
		for _, d := range in.delayed {
			if now.Before(d.at) {
				keep = append(keep, d)
				continue
			}
			in.emitPrePrepare(&out, d.msg, now, d.since)
		}
		in.delayed = keep
	}
	in.fetchTick(&out, now)
	return out
}

// cutBatch proposes the pending refs as one or more batches.
func (in *Instance) cutBatch(out *Output, now time.Time) {
	in.batchDeadline = time.Time{}
	if !in.IsPrimary() || in.inViewChange || len(in.pending) == 0 {
		return
	}
	rate := in.behavior.ProposeRate
	if rate > 0 {
		// Token-bucket pacing: refill, burst-capped at one batch.
		if !in.lastRefill.IsZero() {
			in.tokens += rate * now.Sub(in.lastRefill).Seconds()
		}
		in.lastRefill = now
		// Burst capacity of several batches: with a single-batch cap, idle
		// moments between dispatches leak tokens and the realised rate
		// undershoots the configured one.
		in.tokens = min(in.tokens, float64(4*in.cfg.BatchSize))
	}
	for len(in.pending) > 0 {
		if in.nextSeq > in.stableSeq+in.cfg.WatermarkWindow {
			// Out of watermark window; wait for a stable checkpoint.
			break
		}
		n := min(len(in.pending), in.cfg.BatchSize)
		if rate > 0 {
			// Propose in quarter-batch chunks: the paced stream then lands
			// smoothly inside each monitoring window instead of in coarse
			// bursts that quantise the measured ratio.
			if chunk := in.cfg.BatchSize / 4; chunk >= 1 && n > chunk {
				n = chunk
			}
			// A hair of float tolerance, and a floor on the re-arm delay:
			// without them the wait can truncate to zero and spin the
			// timer without advancing time.
			const epsilon = 1e-9
			if in.tokens+epsilon < float64(n) {
				// Wait until the bucket covers the whole intended batch, so
				// pacing does not degenerate into single-request batches.
				need := time.Duration((float64(n) - in.tokens) / rate * float64(time.Second))
				in.batchDeadline = now.Add(max(need, time.Microsecond))
				return
			}
			in.tokens -= float64(n)
		}
		batch := make([]types.RequestRef, n)
		copy(batch, in.pending[:n])
		in.pending = in.pending[n:]

		pp := &message.PrePrepare{Instance: in.cfg.Instance, View: in.view, Seq: in.nextSeq, Batch: batch, Node: in.cfg.Node}
		in.nextSeq++

		since := in.pendingSince
		if len(in.pending) == 0 {
			in.pendingSince = time.Time{}
		}
		delay := in.prePrepareDelayFor(batch)
		if delay > 0 {
			in.delayed = append(in.delayed, delayedSend{at: now.Add(delay), msg: pp, since: since})
		} else {
			in.emitPrePrepare(out, pp, now, since)
		}
	}
}

// ProposeFiller proposes an empty batch at the next sequence number. Under
// multi-primary ordering the node calls this when the execution merge is
// stalled waiting on this idle lane: an empty batch runs the full three-phase
// protocol, so every correct node agrees the lane's cursor advances past a
// sequence that ordered nothing (core's skip-empty-lane rule). The trigger is
// local and timing-dependent, but only the agreed result enters the merge, so
// determinism of the execution order is unaffected.
//
// It is a no-op unless this replica is the primary, idle (nothing pending,
// nothing proposed-but-undelivered) and inside the watermark window — a lane
// with work in flight will advance the cursor by itself.
func (in *Instance) ProposeFiller(now time.Time) Output {
	var out Output
	if !in.IsPrimary() || in.inViewChange || len(in.pending) > 0 {
		return out
	}
	if in.nextSeq != in.lastDelivered+1 {
		return out
	}
	if in.nextSeq > in.stableSeq+in.cfg.WatermarkWindow {
		return out
	}
	pp := &message.PrePrepare{Instance: in.cfg.Instance, View: in.view, Seq: in.nextSeq, Node: in.cfg.Node}
	in.nextSeq++
	in.emitPrePrepare(&out, pp, now, time.Time{})
	return out
}

// prePrepareDelayFor computes the attack delay applicable to a batch.
func (in *Instance) prePrepareDelayFor(batch []types.RequestRef) time.Duration {
	b := in.behavior
	if len(b.DelayClients) == 0 || slices.ContainsFunc(batch, func(r types.RequestRef) bool { return b.DelayClients[r.Client] }) {
		return b.PrePrepareDelay
	}
	return 0
}

// emitPrePrepare broadcasts a PRE-PREPARE and processes it locally. since,
// when non-zero, anchors the propose span: the wait from the batch head's
// enqueue (including any throttling or attack delay) to this emission.
func (in *Instance) emitPrePrepare(out *Output, pp *message.PrePrepare, now time.Time, since time.Time) {
	if !in.behavior.Silent {
		in.journal(out, wal.Record{Kind: wal.KindSentPrePrepare, View: pp.View, Seq: pp.Seq, Digest: pp.BatchDigest()})
		var buf [message.MaxBodySize]byte
		pp.Auth = in.keys.AuthenticatorForNodes(in.cfg.Cluster.N, pp.AppendBody(buf[:0]))
		out.send(nil, pp)
	}
	in.tracePhase(now, obs.EvPrePrepare, obs.StagePropose, pp.Seq, pp.View, len(pp.Batch), since)
	in.acceptPrePrepare(out, pp, now)
}

// OnMessage dispatches a verified instance message. The node layer has
// already verified the MAC authenticator, the VIEW-CHANGE signatures
// (including those embedded in a NEW-VIEW), and that msg's Node field matches
// the authenticated sender. A sender outside the cluster, or a message for
// another instance, is rejected here, before any handler indexes a vote
// vector by it.
func (in *Instance) OnMessage(msg message.Message, now time.Time) (Output, error) {
	var out Output
	inst, from, ok := message.InstanceAndSender(msg)
	if ok && (from < 0 || int(from) >= in.cfg.Cluster.N) {
		return out, fmt.Errorf("pbft: %s from node %d outside the cluster", msg.MsgType(), from)
	}
	if ok && inst != in.cfg.Instance {
		return out, fmt.Errorf("pbft: %s for instance %d on instance %d", msg.MsgType(), inst, in.cfg.Instance)
	}
	var err error
	// Node-level messages (client traffic, request propagation, replies,
	// instance changes, attack garbage) are consumed by core.Node and can
	// never reach an instance.
	//rbft:dispatch ignore=Request,Propagate,Reply,InstanceChange,Invalid
	switch m := msg.(type) {
	case *message.PrePrepare:
		err = in.onPrePrepare(&out, m, now)
	case *message.Prepare:
		err = in.onPrepare(&out, m, now)
	case *message.Commit:
		err = in.onCommit(&out, m, now)
	case *message.Checkpoint:
		err = in.onCheckpoint(&out, m, now)
	case *message.ViewChange:
		err = in.onViewChange(&out, m)
	case *message.NewView:
		err = in.onNewView(&out, m, now)
	case *message.Fetch:
		err = in.onFetch(&out, m)
	case *message.FetchResp:
		err = in.onFetchResp(&out, m, now)
	default:
		err = fmt.Errorf("pbft: unexpected message type %s", msg.MsgType())
	}
	return out, err
}

func (in *Instance) onPrePrepare(out *Output, pp *message.PrePrepare, now time.Time) error {
	if pp.View != in.view || in.inViewChange {
		return nil // stale or future view; ignore
	}
	if pp.Node != in.Primary() {
		return fmt.Errorf("pbft: PRE-PREPARE from %d, primary is %d", pp.Node, in.Primary())
	}
	if !in.inWindow(pp.Seq) {
		return nil
	}
	in.acceptPrePrepare(out, pp, now)
	return nil
}

// acceptPrePrepare records a PRE-PREPARE (already validated, or self-issued)
// and sends PREPARE once every batch ref is known to the node.
func (in *Instance) acceptPrePrepare(out *Output, pp *message.PrePrepare, now time.Time) {
	s := in.slot(pp.Seq)
	if s == nil {
		return
	}
	digest := pp.BatchDigest()
	if s.havePP && s.view == pp.View {
		return // duplicate
	}
	if s.havePP && s.digest != digest && s.view >= pp.View {
		return // conflicting proposal; keep the first
	}
	in.unwait(s) // the superseded proposal's waiters go with it
	s.havePP, s.view, s.digest, s.batch, s.sentPrep, s.sentComm = true, pp.View, digest, pp.Batch, false, false
	if in.spans {
		s.ppAt = now
	}

	// Count refs the node has not yet collected f+1 PROPAGATEs for. The
	// paper's rule: reply with PREPARE only if the node already received f+1
	// copies of the request, preventing a malicious primary from boosting
	// its instance with requests sent only to it. A delivered ref is not
	// waited on, nor a decided one, nor any ref of a sequence already
	// delivered here. Each ref is resolved once, and the proposal keeps it.
	if !s.delivered && pp.Seq > in.lastDelivered {
		s.recs = make([]Record, len(pp.Batch))
		for i, ref := range pp.Batch {
			s.recs[i] = in.store.Request(in.cfg.Instance, ref)
			if r := in.entry(s.recs[i]); r != nil && r.at == 0 && !r.known {
				s.waiting++
				r.waiters = append(r.waiters, waiter{view: pp.View, seq: pp.Seq})
			}
		}
	}
	if s.waiting == 0 {
		in.maybePrepare(out, s, now)
	}
}

// maybePrepare sends this replica's PREPARE (non-primary only) and checks
// phase progress.
func (in *Instance) maybePrepare(out *Output, s *slot, now time.Time) {
	if !s.havePP || s.waiting > 0 {
		return
	}
	if in.conflicts(s, s.promisedPrepare) {
		// We already vouched for a different batch at this (view, seq)
		// before the crash; preparing this one would be equivocation.
		return
	}
	if !in.IsPrimary() && !s.sentPrep {
		s.sentPrep = true
		// Our own PREPARE counts toward the 2f quorum (PBFT counts the
		// replica's logged prepare), which is what lets the instance make
		// progress with f silent faulty replicas.
		s.prepares[in.cfg.Node] = s.digest
		if !in.behavior.Silent {
			in.journal(out, wal.Record{Kind: wal.KindSentPrepare, View: s.view, Seq: s.seq, Digest: s.digest})
			p := &message.Prepare{Instance: in.cfg.Instance, View: s.view, Seq: s.seq, Digest: s.digest, Node: in.cfg.Node}
			var buf [message.MaxBodySize]byte
			p.Auth = in.keys.AuthenticatorForNodes(in.cfg.Cluster.N, p.AppendBody(buf[:0]))
			out.send(nil, p)
		}
	}
	in.checkPrepared(out, s, now)
}

func (in *Instance) onPrepare(out *Output, p *message.Prepare, now time.Time) error {
	if p.View != in.view || in.inViewChange || !in.inWindow(p.Seq) {
		return nil
	}
	if p.Node == in.Primary() {
		return fmt.Errorf("pbft: primary %d must not send PREPARE", p.Node)
	}
	s := in.slot(p.Seq)
	if s == nil || !s.prepares[p.Node].IsZero() && p.Node != in.cfg.Node {
		return nil
	}
	s.prepares[p.Node] = p.Digest
	in.checkPrepared(out, s, now)
	return nil
}

// prepared: PRE-PREPARE plus 2f matching PREPAREs from distinct non-primary
// replicas (our own counts when we sent it).
func (in *Instance) checkPrepared(out *Output, s *slot, now time.Time) {
	if !s.havePP || s.waiting > 0 || s.sentComm {
		return
	}
	if tally(s.prepares, s.digest) < in.cfg.Cluster.PrepareQuorum() {
		return
	}
	if in.conflicts(s, s.promisedCommit) {
		// A COMMIT for a different digest at this (view, seq) is already on
		// the wire from before the crash; never contradict it.
		return
	}
	s.sentComm = true
	in.tracePhase(now, obs.EvPrepare, obs.StagePrepareQuorum, s.seq, s.view, len(s.batch), s.ppAt)
	if !s.ppAt.IsZero() {
		s.prepAt = now
	}
	if !in.behavior.Silent {
		in.journal(out, wal.Record{Kind: wal.KindSentCommit, View: s.view, Seq: s.seq, Digest: s.digest})
		c := &message.Commit{Instance: in.cfg.Instance, View: s.view, Seq: s.seq, Digest: s.digest, Node: in.cfg.Node}
		var buf [message.MaxBodySize]byte
		c.Auth = in.keys.AuthenticatorForNodes(in.cfg.Cluster.N, c.AppendBody(buf[:0]))
		out.send(nil, c)
	}
	s.commits[in.cfg.Node] = s.digest
	in.checkCommitted(out, s, now)
}

func (in *Instance) onCommit(out *Output, c *message.Commit, now time.Time) error {
	if c.View != in.view || in.inViewChange || !in.inWindow(c.Seq) {
		return nil
	}
	s := in.slot(c.Seq)
	if s == nil || !s.commits[c.Node].IsZero() && c.Node != in.cfg.Node {
		return nil
	}
	s.commits[c.Node] = c.Digest
	in.checkCommitted(out, s, now)
	return nil
}

// committed: 2f+1 matching COMMITs (including our own).
func (in *Instance) checkCommitted(out *Output, s *slot, now time.Time) {
	if !s.havePP || !s.sentComm || s.delivered {
		return
	}
	matching := tally(s.commits, s.digest)
	if matching < in.cfg.Cluster.Quorum() {
		return
	}
	s.delivered = true
	in.tracePhase(now, obs.EvCommit, obs.StageCommitQuorum, s.seq, s.view, len(s.batch), s.prepAt)
	in.deliverReady(out, now)
}

// tracePhase traces the phase event typ of the proposal (seq, view) of n refs
// — a PRE-PREPARE's with its count — and, with spans on and since set, the
// span of stage from since.
func (in *Instance) tracePhase(now time.Time, typ obs.EventType, stage obs.Stage, seq types.SeqNum, view types.View, n int, since time.Time) {
	if in.tr.Enabled() {
		ev := obs.Event{At: now, Type: typ, Instance: in.cfg.Instance, Seq: seq, View: view}
		if typ == obs.EvPrePrepare {
			ev.Count = n
		}
		in.tr.Trace(ev)
	}
	if in.spans && !since.IsZero() {
		in.tr.Trace(obs.Event{At: now, Type: obs.EvSpan, Stage: stage, Instance: in.cfg.Instance, Seq: seq, View: view, Count: n, Dur: now.Sub(since)})
	}
}

// deliverReady delivers committed slots in contiguous sequence order and
// emits checkpoints at interval boundaries.
func (in *Instance) deliverReady(out *Output, now time.Time) {
	for {
		next := in.lastDelivered + 1
		s := in.at(next)
		if s.seq != next || !s.delivered {
			break
		}
		in.lastDelivered = next
		s.deliveredIn = s.view
		all := len(s.recs) != len(s.batch) // the proposal resolved none: fetched, or at or below a delivery
		if all {
			s.recs = make([]Record, len(s.batch))
		}
		b, dropped := Batch{Instance: in.cfg.Instance, Seq: next, View: s.view, Refs: s.batch, Recs: s.recs}, false
		for i, ref := range s.batch {
			if all || s.recs[i] != nil && !s.recs[i].Holds(ref) {
				s.recs[i] = in.store.Request(in.cfg.Instance, ref)
			}
			r := in.entry(s.recs[i])
			if r == nil || r.at != 0 { // decided, or delivered by an earlier proposal
				if !dropped {
					dropped, b.Refs, b.Recs = true, slices.Clone(s.batch[:i]), slices.Clone(s.recs[:i])
				}
				continue
			}
			if r.at = next; dropped {
				b.Refs, b.Recs = append(b.Refs, ref), append(b.Recs, s.recs[i])
			}
			in.settle(s.recs[i], r)
		}
		out.Delivered = append(out.Delivered, b)
		in.retainDelivered(next)
		d := s.digest // as proposed in view 0, so a view change cannot split checkpoints
		if s.view != 0 {
			d = (&message.PrePrepare{Instance: in.cfg.Instance, Seq: next, Batch: s.batch}).BatchDigest()
		}
		in.logDigest = chainDigest(in.logDigest, d)

		if next%in.cfg.CheckpointInterval == 0 {
			in.emitCheckpoint(out, next, now)
		}
	}
}

func chainDigest(prev, batch types.Digest) types.Digest {
	buf := make([]byte, 0, 2*types.DigestSize)
	buf = append(buf, prev[:]...)
	buf = append(buf, batch[:]...)
	return crypto.Digest(buf)
}

func (in *Instance) emitCheckpoint(out *Output, seq types.SeqNum, now time.Time) {
	if !in.behavior.Silent {
		cp := &message.Checkpoint{Instance: in.cfg.Instance, Seq: seq, Digest: in.logDigest, Node: in.cfg.Node}
		var buf [message.MaxBodySize]byte
		cp.Auth = in.keys.AuthenticatorForNodes(in.cfg.Cluster.N, cp.AppendBody(buf[:0]))
		out.send(nil, cp)
	}
	in.recordCheckpoint(out, seq, in.cfg.Node, in.logDigest, now)
}

// onCheckpoint keeps a peer's CHECKPOINT vote. A correct node checkpoints
// only at interval boundaries; one too far above lastDelivered is ignored —
// no peer retains the batches that would let a fetch close such a gap — so
// one faulty peer can make the replica keep votes at no more than
// (lastDelivered − stableSeq + len(log))/interval sequences.
func (in *Instance) onCheckpoint(out *Output, cp *message.Checkpoint, now time.Time) error {
	if cp.Node == in.cfg.Node {
		return fmt.Errorf("pbft: CHECKPOINT from a peer claims node %d, this replica", cp.Node)
	}
	if cp.Seq%in.cfg.CheckpointInterval != 0 {
		return fmt.Errorf("pbft: CHECKPOINT at %d, not a multiple of the interval %d", cp.Seq, in.cfg.CheckpointInterval)
	}
	if cp.Seq <= in.stableSeq || cp.Seq > in.lastDelivered+types.SeqNum(len(in.log)) {
		return nil
	}
	in.recordCheckpoint(out, cp.Seq, cp.Node, cp.Digest, now)
	return nil
}

func (in *Instance) recordCheckpoint(out *Output, seq types.SeqNum, node types.NodeID, digest types.Digest, now time.Time) {
	votes := in.checkpoints[seq]
	if votes == nil {
		votes = make([]types.Digest, in.cfg.Cluster.N)
		in.checkpoints[seq] = votes
	}
	votes[node] = digest
	// Checkpoint evidence may reveal that this replica missed committed
	// batches entirely; start catch-up if so. This must run even (indeed,
	// especially) when we have no own digest for the sequence.
	in.noteCheckpointEvidence(out, seq, votes, now)
	// Stability requires 2f+1 digests matching our own (emitCheckpoint's).
	own := votes[in.cfg.Node]
	if own.IsZero() {
		return
	}
	if tally(votes, own) >= in.cfg.Cluster.Quorum() && seq > in.stableSeq {
		in.journal(out, wal.Record{Kind: wal.KindStable, Seq: seq, Digest: own})
		in.stabilize(seq)
		// Stabilising widens the watermark window; a primary stalled on the
		// window can now cut its backlog.
		if in.IsPrimary() && !in.inViewChange && len(in.pending) > 0 {
			in.cutBatch(out, now)
		}
	}
}

// stabilize moves the stable checkpoint to seq. The log needs no cleaning:
// every slot at or below seq is delivered and waits on nothing, and leaves
// the ring when a later sequence takes its position over.
func (in *Instance) stabilize(seq types.SeqNum) {
	in.stableSeq = seq
	maps.DeleteFunc(in.checkpoints, func(s types.SeqNum, _ []types.Digest) bool { return s <= seq })
}

// tally counts the votes for digest d.
func tally(votes []types.Digest, d types.Digest) (n int) {
	for _, v := range votes {
		if v == d {
			n++
		}
	}
	return n
}

func (in *Instance) inWindow(seq types.SeqNum) bool {
	return seq > in.stableSeq && seq <= in.stableSeq+in.cfg.WatermarkWindow
}

// at returns the ring position of seq; it holds seq only if its seq says so.
func (in *Instance) at(seq types.SeqNum) *slot { return &in.log[seq%types.SeqNum(len(in.log))] }

// slot returns seq's slot, taking the ring position over from an older
// sequence. It returns nil when a newer sequence holds the position, and,
// outside a WAL replay, for seq above lastDelivered+W: below that, the
// sequence it takes over from is delivered and out of retention.
func (in *Instance) slot(seq types.SeqNum) *slot {
	s := in.at(seq)
	if s.seq == seq {
		return s
	}
	if seq == 0 || s.seq > seq || seq > in.lastDelivered+in.cfg.WatermarkWindow && in.restore == nil {
		return nil
	}
	in.restart(s)
	clear(s.fetched)
	*s = slot{seq: seq, prepares: s.prepares, commits: s.commits, fetched: s.fetched}
	return s
}

// restart forgets the proposal a NEW-VIEW supersedes at s, with its votes
// and waiters; the restored promises and fetch votes stay.
func (in *Instance) restart(s *slot) {
	in.unwait(s)
	s.phase = phase{}
	clear(s.prepares)
	clear(s.commits)
}
