// Package pbft implements one RBFT protocol instance: a PBFT-style
// three-phase ordering state machine (PRE-PREPARE / PREPARE / COMMIT) with
// request batching, watermarks, checkpoints, and an externally triggered view
// change.
//
// An Instance is a pure state machine: it performs no I/O, spawns no
// goroutines and never reads the wall clock. Each of the five entry points
// (AddRequest, OnMessage, Tick, StartViewChange, ProposeFiller) takes the
// current time and returns the one Output of the step (messages to send,
// batches delivered in sequence order, records to persist). It owns that
// value: every handler below it takes the *Output and appends to it in call
// order, and validates its input before its first append, so an entry point
// that returns an error returns a zero Output. Drivers — the real-time
// runtime and the discrete-event simulator — execute those effects. This is
// what lets the same protocol code run over live TCP and inside the
// deterministic simulator that regenerates the paper's figures. A sixth
// input, Executed, has no effects: the node reports a ref it executed, and
// the replica forgets it (docs/ORDERING.md, "Per-request state").
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
	"fmt"
	"maps"
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
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.BatchSize == 0 {
		out.BatchSize = 64
	}
	if out.BatchTimeout == 0 {
		out.BatchTimeout = 5 * time.Millisecond
	}
	if out.CheckpointInterval == 0 {
		out.CheckpointInterval = 128
	}
	if out.WatermarkWindow == 0 {
		out.WatermarkWindow = 4 * out.CheckpointInterval
	}
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

// entry tracks the three-phase state of one sequence number.
type entry struct {
	view      types.View
	digest    types.Digest
	batch     []types.RequestRef
	havePP    bool
	prepares  map[types.NodeID]types.Digest
	commits   map[types.NodeID]types.Digest
	sentPrep  bool
	sentComm  bool
	delivered bool
	// waiting counts batch refs the node has not yet collected f+1
	// PROPAGATEs for; PREPARE is withheld until it reaches zero.
	waiting int
	// ppAt/prepAt anchor the prepare-quorum and commit-quorum spans: when
	// the PRE-PREPARE was accepted and when the prepared state was reached.
	// Only maintained when the tracer wants spans.
	ppAt   time.Time
	prepAt time.Time
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

	// Per-request state (see reqState): reqs holds a record per ref in
	// flight, free recycles retired records, and decided — installed by the
	// node, nil without one — reports whether a ref's (client, id) executed.
	reqs    map[types.RequestRef]*reqState
	free    []*reqState
	decided func(types.RequestRef) bool

	// Replica state.
	entries           map[types.SeqNum]*entry
	lastDelivered     types.SeqNum
	stableSeq         types.SeqNum                  // last stable checkpoint
	logDigest         types.Digest                  // running digest chain of delivered batches
	checkpointDigests map[types.SeqNum]types.Digest // our own, awaiting stability
	checkpoints       map[types.SeqNum]map[types.NodeID]types.Digest

	// View-change state.
	viewChanges map[types.View]map[types.NodeID]*message.ViewChange

	// Catch-up state (see fetch.go).
	recentDelivered map[types.SeqNum]deliveredBatch
	fetch           *fetchState

	// Crash-recovery state (see durability.go): promises replayed from the
	// WAL that the live protocol must never contradict, and the transient
	// accumulator used while a replay is in progress.
	promisedPrepare map[types.SeqNum]promise
	promisedCommit  map[types.SeqNum]promise
	restore         *restoreState

	// Delayed PRE-PREPAREs (malicious primary attack hook).
	delayed    []delayedSend
	tokens     float64
	lastRefill time.Time

	// Statistics.
	stats Stats

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

// Stats counts observable protocol events, used by tests and the monitor.
type Stats struct {
	Proposed    uint64 // batches proposed as primary
	Delivered   uint64 // batches delivered
	RefsOrdered uint64 // request refs delivered
	ViewChanges uint64 // view changes completed (NEW-VIEW accepted/sent)
}

// New creates a protocol-instance replica.
func New(cfg Config, keys *crypto.KeyRing) *Instance {
	c := cfg.withDefaults()
	return &Instance{
		cfg:               c,
		keys:              keys,
		nextSeq:           1,
		reqs:              make(map[types.RequestRef]*reqState),
		entries:           make(map[types.SeqNum]*entry),
		checkpointDigests: make(map[types.SeqNum]types.Digest),
		checkpoints:       make(map[types.SeqNum]map[types.NodeID]types.Digest),
		viewChanges:       make(map[types.View]map[types.NodeID]*message.ViewChange),
		recentDelivered:   make(map[types.SeqNum]deliveredBatch),
		promisedPrepare:   make(map[types.SeqNum]promise),
		promisedCommit:    make(map[types.SeqNum]promise),
		tr:                obs.Nop{},
	}
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

// Stats returns a copy of the replica's counters.
func (in *Instance) Stats() Stats { return in.stats }

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
	if fw := in.fetchWake(); !fw.IsZero() && (wake.IsZero() || fw.Before(wake)) {
		wake = fw
	}
	return wake
}

// AddRequest informs the replica that its node has collected f+1 PROPAGATE
// copies of the request and it is ready for ordering.
func (in *Instance) AddRequest(ref types.RequestRef, now time.Time) Output {
	var out Output
	r := in.track(ref)
	if r == nil || r.known {
		return out
	}
	r.known = true

	// Release the PRE-PREPAREs that were waiting on this request.
	for _, w := range r.waiters {
		if e := in.entries[w.seq]; e != nil && e.view == w.view {
			e.waiting--
			if e.waiting == 0 {
				in.maybePrepare(&out, w.seq, e, now)
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
		if max := float64(4 * in.cfg.BatchSize); in.tokens > max {
			in.tokens = max
		}
	}
	for len(in.pending) > 0 {
		if in.nextSeq > in.stableSeq+in.cfg.WatermarkWindow {
			// Out of watermark window; wait for a stable checkpoint.
			break
		}
		n := len(in.pending)
		if n > in.cfg.BatchSize {
			n = in.cfg.BatchSize
		}
		if rate > 0 {
			// Propose in quarter-batch chunks: the paced stream then lands
			// smoothly inside each monitoring window instead of in coarse
			// bursts that quantise the measured ratio.
			if chunk := in.cfg.BatchSize / 4; chunk >= 1 && n > chunk {
				n = chunk
			}
		}
		if rate > 0 {
			// A hair of float tolerance, and a floor on the re-arm delay:
			// without them the wait can truncate to zero and spin the
			// timer without advancing time.
			const epsilon = 1e-9
			if in.tokens+epsilon < float64(n) {
				// Wait until the bucket covers the whole intended batch, so
				// pacing does not degenerate into single-request batches.
				need := time.Duration((float64(n) - in.tokens) / rate * float64(time.Second))
				if need < time.Microsecond {
					need = time.Microsecond
				}
				in.batchDeadline = now.Add(need)
				return
			}
			in.tokens -= float64(n)
		}
		batch := make([]types.RequestRef, n)
		copy(batch, in.pending[:n])
		in.pending = in.pending[n:]

		pp := &message.PrePrepare{Instance: in.cfg.Instance, View: in.view, Seq: in.nextSeq, Batch: batch, Node: in.cfg.Node}
		in.nextSeq++
		in.stats.Proposed++

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
	in.stats.Proposed++
	in.emitPrePrepare(&out, pp, now, time.Time{})
	return out
}

// prePrepareDelayFor computes the attack delay applicable to a batch.
func (in *Instance) prePrepareDelayFor(batch []types.RequestRef) time.Duration {
	if in.behavior.PrePrepareDelay == 0 {
		return 0
	}
	if len(in.behavior.DelayClients) == 0 {
		return in.behavior.PrePrepareDelay
	}
	for _, ref := range batch {
		if in.behavior.DelayClients[ref.Client] {
			return in.behavior.PrePrepareDelay
		}
	}
	return 0
}

// emitPrePrepare broadcasts a PRE-PREPARE and processes it locally. since,
// when non-zero, anchors the propose span: the wait from the batch head's
// enqueue (including any throttling or attack delay) to this emission.
func (in *Instance) emitPrePrepare(out *Output, pp *message.PrePrepare, now time.Time, since time.Time) {
	if !in.behavior.Silent {
		in.journal(out, wal.Record{Kind: wal.KindSentPrePrepare, View: pp.View, Seq: pp.Seq, Refs: pp.Batch})
		var buf [message.MaxBodySize]byte
		pp.Auth = in.keys.AuthenticatorForNodes(in.cfg.Cluster.N, pp.AppendBody(buf[:0]))
		out.send(nil, pp)
	}
	if in.tr.Enabled() {
		in.tr.Trace(obs.Event{
			At: now, Type: obs.EvPrePrepare, Instance: in.cfg.Instance,
			Seq: pp.Seq, View: pp.View, Count: len(pp.Batch),
		})
	}
	if in.spans && !since.IsZero() {
		in.tr.Trace(obs.Event{
			At: now, Type: obs.EvSpan, Stage: obs.StagePropose,
			Instance: in.cfg.Instance, Seq: pp.Seq, View: pp.View,
			Count: len(pp.Batch), Dur: now.Sub(since),
		})
	}
	in.acceptPrePrepare(out, pp, now)
}

// OnMessage dispatches a verified instance message. The node layer has
// already verified the MAC authenticator, the VIEW-CHANGE signatures
// (including those embedded in a NEW-VIEW), and that msg's Node field matches
// the authenticated sender.
func (in *Instance) OnMessage(msg message.Message, now time.Time) (Output, error) {
	var out Output
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
	if pp.Instance != in.cfg.Instance {
		return fmt.Errorf("pbft: PRE-PREPARE for instance %d on instance %d", pp.Instance, in.cfg.Instance)
	}
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
	e := in.entry(pp.Seq)
	digest := pp.BatchDigest()
	if e.havePP && e.view == pp.View {
		return // duplicate
	}
	if e.havePP && e.digest != digest && e.view >= pp.View {
		return // conflicting proposal; keep the first
	}
	in.unwait(pp.Seq, e) // the superseded proposal's waiters go with it
	e.havePP = true
	e.view = pp.View
	e.digest = digest
	e.batch = pp.Batch
	e.sentPrep = false
	e.sentComm = false
	if in.spans {
		e.ppAt = now
	}

	// Count refs the node has not yet collected f+1 PROPAGATEs for. The
	// paper's rule: reply with PREPARE only if the node already received f+1
	// copies of the request, preventing a malicious primary from boosting
	// its instance with requests sent only to it. A delivered ref is not
	// waited on, nor one the node reports executed.
	for _, ref := range pp.Batch {
		if r := in.track(ref); r != nil && r.at == 0 && !r.known {
			e.waiting++
			r.waiters = append(r.waiters, waiter{view: pp.View, seq: pp.Seq})
		}
	}
	if e.waiting == 0 {
		in.maybePrepare(out, pp.Seq, e, now)
	}
}

// maybePrepare sends this replica's PREPARE (non-primary only) and checks
// phase progress.
func (in *Instance) maybePrepare(out *Output, seq types.SeqNum, e *entry, now time.Time) {
	if !e.havePP || e.waiting > 0 {
		return
	}
	if conflicts(in.promisedPrepare, seq, e) {
		// We already vouched for a different batch at this (view, seq)
		// before the crash; preparing this one would be equivocation.
		return
	}
	if !in.IsPrimary() && !e.sentPrep {
		e.sentPrep = true
		// Our own PREPARE counts toward the 2f quorum (PBFT counts the
		// replica's logged prepare), which is what lets the instance make
		// progress with f silent faulty replicas.
		e.prepares[in.cfg.Node] = e.digest
		if !in.behavior.Silent {
			in.journal(out, wal.Record{Kind: wal.KindSentPrepare, View: e.view, Seq: seq, Digest: e.digest})
			p := &message.Prepare{Instance: in.cfg.Instance, View: e.view, Seq: seq, Digest: e.digest, Node: in.cfg.Node}
			var buf [message.MaxBodySize]byte
			p.Auth = in.keys.AuthenticatorForNodes(in.cfg.Cluster.N, p.AppendBody(buf[:0]))
			out.send(nil, p)
		}
	}
	in.checkPrepared(out, seq, e, now)
}

func (in *Instance) onPrepare(out *Output, p *message.Prepare, now time.Time) error {
	if p.Instance != in.cfg.Instance {
		return fmt.Errorf("pbft: PREPARE for instance %d on instance %d", p.Instance, in.cfg.Instance)
	}
	if p.View != in.view || in.inViewChange || !in.inWindow(p.Seq) {
		return nil
	}
	if p.Node == in.Primary() {
		return fmt.Errorf("pbft: primary %d must not send PREPARE", p.Node)
	}
	e := in.entry(p.Seq)
	if _, dup := e.prepares[p.Node]; dup && p.Node != in.cfg.Node {
		return nil
	}
	e.prepares[p.Node] = p.Digest
	in.checkPrepared(out, p.Seq, e, now)
	return nil
}

// prepared: PRE-PREPARE plus 2f matching PREPAREs from distinct non-primary
// replicas (our own counts when we sent it).
func (in *Instance) checkPrepared(out *Output, seq types.SeqNum, e *entry, now time.Time) {
	if !e.havePP || e.waiting > 0 || e.sentComm {
		return
	}
	if tally(e.prepares, e.digest) < in.cfg.Cluster.PrepareQuorum() {
		return
	}
	if conflicts(in.promisedCommit, seq, e) {
		// A COMMIT for a different digest at this (view, seq) is already on
		// the wire from before the crash; never contradict it.
		return
	}
	e.sentComm = true
	if in.tr.Enabled() {
		in.tr.Trace(obs.Event{
			At: now, Type: obs.EvPrepare, Instance: in.cfg.Instance,
			Seq: seq, View: e.view,
		})
	}
	if in.spans && !e.ppAt.IsZero() {
		e.prepAt = now
		in.tr.Trace(obs.Event{
			At: now, Type: obs.EvSpan, Stage: obs.StagePrepareQuorum,
			Instance: in.cfg.Instance, Seq: seq, View: e.view,
			Count: len(e.batch), Dur: now.Sub(e.ppAt),
		})
	}
	if !in.behavior.Silent {
		in.journal(out, wal.Record{Kind: wal.KindSentCommit, View: e.view, Seq: seq, Digest: e.digest})
		c := &message.Commit{Instance: in.cfg.Instance, View: e.view, Seq: seq, Digest: e.digest, Node: in.cfg.Node}
		var buf [message.MaxBodySize]byte
		c.Auth = in.keys.AuthenticatorForNodes(in.cfg.Cluster.N, c.AppendBody(buf[:0]))
		out.send(nil, c)
	}
	e.commits[in.cfg.Node] = e.digest
	in.checkCommitted(out, seq, e, now)
}

func (in *Instance) onCommit(out *Output, c *message.Commit, now time.Time) error {
	if c.Instance != in.cfg.Instance {
		return fmt.Errorf("pbft: COMMIT for instance %d on instance %d", c.Instance, in.cfg.Instance)
	}
	if c.View != in.view || in.inViewChange || !in.inWindow(c.Seq) {
		return nil
	}
	e := in.entry(c.Seq)
	if _, dup := e.commits[c.Node]; dup && c.Node != in.cfg.Node {
		return nil
	}
	e.commits[c.Node] = c.Digest
	in.checkCommitted(out, c.Seq, e, now)
	return nil
}

// committed: 2f+1 matching COMMITs (including our own).
func (in *Instance) checkCommitted(out *Output, seq types.SeqNum, e *entry, now time.Time) {
	if !e.havePP || !e.sentComm || e.delivered {
		return
	}
	matching := tally(e.commits, e.digest)
	if matching < in.cfg.Cluster.Quorum() {
		return
	}
	e.delivered = true
	if in.tr.Enabled() {
		in.tr.Trace(obs.Event{
			At: now, Type: obs.EvCommit, Instance: in.cfg.Instance,
			Seq: seq, View: e.view,
		})
	}
	if in.spans && !e.prepAt.IsZero() {
		in.tr.Trace(obs.Event{
			At: now, Type: obs.EvSpan, Stage: obs.StageCommitQuorum,
			Instance: in.cfg.Instance, Seq: seq, View: e.view,
			Count: len(e.batch), Dur: now.Sub(e.prepAt),
		})
	}
	in.deliverReady(out, now)
}

// deliverReady delivers committed entries in contiguous sequence order and
// emits checkpoints at interval boundaries.
func (in *Instance) deliverReady(out *Output, now time.Time) {
	for {
		next := in.lastDelivered + 1
		e := in.entries[next]
		if e == nil || !e.delivered {
			break
		}
		in.lastDelivered = next
		refs := make([]types.RequestRef, 0, len(e.batch))
		for _, ref := range e.batch {
			r := in.track(ref)
			if r == nil || r.at != 0 {
				continue // dedupe across view-change re-proposals
			}
			r.at = next
			refs = append(refs, ref)
			in.settle(ref, r)
		}
		in.stats.Delivered++
		in.stats.RefsOrdered += uint64(len(refs))
		out.Delivered = append(out.Delivered, Batch{
			Instance: in.cfg.Instance,
			Seq:      next,
			View:     e.view,
			Refs:     refs,
		})
		in.retainDelivered(next, e.view, e.batch)
		d := e.digest // as proposed in view 0, so a view change cannot split checkpoints
		if e.view != 0 {
			d = (&message.PrePrepare{Instance: in.cfg.Instance, Seq: next, Batch: e.batch}).BatchDigest()
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
	in.checkpointDigests[seq] = in.logDigest
	in.journal(out, wal.Record{Kind: wal.KindCheckpoint, Seq: seq, Digest: in.logDigest})
	if !in.behavior.Silent {
		cp := &message.Checkpoint{Instance: in.cfg.Instance, Seq: seq, Digest: in.logDigest, Node: in.cfg.Node}
		var buf [message.MaxBodySize]byte
		cp.Auth = in.keys.AuthenticatorForNodes(in.cfg.Cluster.N, cp.AppendBody(buf[:0]))
		out.send(nil, cp)
	}
	in.recordCheckpoint(out, seq, in.cfg.Node, in.logDigest, now)
}

func (in *Instance) onCheckpoint(out *Output, cp *message.Checkpoint, now time.Time) error {
	if cp.Instance != in.cfg.Instance {
		return fmt.Errorf("pbft: CHECKPOINT for instance %d on instance %d", cp.Instance, in.cfg.Instance)
	}
	if cp.Seq <= in.stableSeq {
		return nil
	}
	in.recordCheckpoint(out, cp.Seq, cp.Node, cp.Digest, now)
	return nil
}

func (in *Instance) recordCheckpoint(out *Output, seq types.SeqNum, node types.NodeID, digest types.Digest, now time.Time) {
	m := in.checkpoints[seq]
	if m == nil {
		m = make(map[types.NodeID]types.Digest, in.cfg.Cluster.Quorum())
		in.checkpoints[seq] = m
	}
	m[node] = digest
	// Checkpoint evidence may reveal that this replica missed committed
	// batches entirely; start catch-up if so. This must run even (indeed,
	// especially) when we have no own digest for the sequence.
	in.noteCheckpointEvidence(out, seq, now)
	// Stability requires 2f+1 digests matching our own.
	own, haveOwn := in.checkpointDigests[seq]
	if !haveOwn {
		return
	}
	matching := 0
	for _, d := range m {
		if d == own {
			matching++
		}
	}
	if matching >= in.cfg.Cluster.Quorum() && seq > in.stableSeq {
		in.journal(out, wal.Record{Kind: wal.KindStable, Seq: seq, Digest: own})
		in.stabilize(seq)
		// Stabilising widens the watermark window; a primary stalled on the
		// window can now cut its backlog.
		if in.IsPrimary() && !in.inViewChange && len(in.pending) > 0 {
			in.cutBatch(out, now)
		}
	}
}

// stabilize garbage-collects state below the new stable checkpoint.
func (in *Instance) stabilize(seq types.SeqNum) {
	if seq <= in.stableSeq {
		return
	}
	in.stableSeq = seq
	for s, e := range in.entries {
		if s <= seq {
			in.unwait(s, e) //rbft:ignore maprange -- touches only e's own waiters
			delete(in.entries, s)
		}
	}
	maps.DeleteFunc(in.checkpoints, func(s types.SeqNum, _ map[types.NodeID]types.Digest) bool { return s < seq })
	maps.DeleteFunc(in.checkpointDigests, func(s types.SeqNum, _ types.Digest) bool { return s < seq })
	in.dropPromises(seq)
}

// tally counts the votes for digest d.
func tally(votes map[types.NodeID]types.Digest, d types.Digest) (n int) {
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

func (in *Instance) entry(seq types.SeqNum) *entry {
	e := in.entries[seq]
	if e == nil {
		e = &entry{
			prepares: make(map[types.NodeID]types.Digest, in.cfg.Cluster.Quorum()),
			commits:  make(map[types.NodeID]types.Digest, in.cfg.Cluster.Quorum()),
		}
		in.entries[seq] = e
	}
	return e
}
