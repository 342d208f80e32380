package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/transport"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// Egress pipeline (docs/EGRESS.md): the apply loop never touches the wire.
// emit encodes each output message once into a pooled buffer and enqueues it
// on the per-peer egress queues; one worker goroutine per peer drains its
// queue, waits out the durability horizon, and flushes whatever is queued with
// one SendBatch, which coalesces it into as few wire frames as fit.
//
// The queues are bounded with drop-oldest overflow: RBFT tolerates message
// loss (retransmission and fetch recover), but it does not tolerate the
// apply loop stalling, and the oldest frame is the one most likely to be
// stale. A wedged or dead peer therefore costs its own queue, never the
// ordering pipeline.

const (
	// egressQueueDepth bounds one peer's queue. At protocol message sizes
	// (~100-200 B) this is a few hundred KB per wedged peer, and far more
	// than a healthy peer ever accumulates.
	egressQueueDepth = 256
	// egressMaxCoalesce bounds the payloads flushed as one batch frame, so
	// one flush cannot monopolise the wire or build an oversized frame.
	egressMaxCoalesce = 64
)

// egressFrame is one encoded message shared by every peer queue it was
// fanned out to. refs counts outstanding queue references (egress.release).
type egressFrame struct {
	buf *message.Buf
	// lsn is the frame's durability horizon: the WAL position that must be
	// durable before the frame may leave the box (log-before-send). Zero
	// means no durability dependency.
	lsn  uint64
	refs int32 // atomic

	// Span bookkeeping, populated only for reply frames when spans are on:
	// at is the enqueue stamp, and the frame answers client's requests req …
	// req+answers-1, so the wal-durable and egress spans can join the rest of
	// their lifecycles.
	at      time.Time
	answers int
	client  types.ClientID
	req     types.RequestID
}

// peerQueue is one peer's bounded egress queue plus its gauges. name is the
// peer's wire name, built when the queue is created.
type peerQueue struct {
	name    string
	ch      chan *egressFrame
	depth   *obs.Gauge
	dropped *obs.Counter
}

// egress owns the per-peer queues and workers of one node runtime. Only the
// apply loop enqueues, so the queue map needs no lock.
type egress struct {
	tr    transport.Transport
	keeps bool     // tr delivers the payloads themselves (transport.KeepsPayloads)
	wal   *wal.Log // nil unless durability is on
	self  string   // this node's endpoint name, for metric labels
	reg   *obs.Registry
	sp    obs.Tracer // node-stamped span sink; Nop unless spans are on
	spans bool

	queues map[endpoint]*peerQueue // created lazily per peer: clients appear at run time

	stop chan struct{}
	wg   sync.WaitGroup
}

func newEgress(tr transport.Transport, w *wal.Log, self string, reg *obs.Registry, stop chan struct{}) *egress {
	return &egress{
		tr:     tr,
		keeps:  transport.KeepsPayloads(tr),
		wal:    w,
		self:   self,
		reg:    reg,
		sp:     obs.Nop{},
		queues: make(map[endpoint]*peerQueue),
		stop:   stop,
	}
}

// queue returns the peer's queue, creating it (and its worker) on first use.
func (e *egress) queue(peer endpoint) *peerQueue {
	if q, ok := e.queues[peer]; ok {
		return q
	}
	name := peer.name()
	link := e.self + "->" + name
	q := &peerQueue{
		name:    name,
		ch:      make(chan *egressFrame, egressQueueDepth),
		depth:   e.reg.Gauge(obs.LabeledName("rbft_egress_queue_depth", "link", link)),
		dropped: e.reg.Counter(obs.LabeledName("rbft_egress_dropped_total", "link", link)),
	}
	e.queues[peer] = q
	e.wg.Add(1)
	go e.worker(q)
	return q
}

// enqueue hands a frame to the peer's queue without ever blocking the
// caller: on overflow it drops the oldest queued frame and retries. Runs on
// the apply loop — it must stay non-blocking and lock-free.
func (e *egress) enqueue(peer endpoint, f *egressFrame) {
	q := e.queue(peer)
	for {
		select {
		case q.ch <- f:
			q.depth.Set(int64(len(q.ch)))
			return
		default:
		}
		// Queue full: evict the oldest frame (most likely already stale) and
		// retry. The pop can race with the worker draining; losing the race
		// just means the retry succeeds immediately.
		select {
		case old := <-q.ch:
			e.release(old)
			q.dropped.Inc()
		default:
		}
	}
}

// drainInto appends to buf what ch already holds, never waiting, until buf is
// at capacity. Every loop of the runtime takes its input this way: what queued
// while the previous round was served comes out as one round, which regulates
// itself under load and adds no latency when idle.
func drainInto[T any](buf []T, ch <-chan T) []T {
	for len(buf) < cap(buf) {
		select {
		case v, ok := <-ch:
			if !ok {
				return buf
			}
			buf = append(buf, v)
		default:
			return buf
		}
	}
	return buf
}

// worker drains one peer's queue: it collects whatever is queued (bounded by
// egressMaxCoalesce), waits for the batch's durability horizon, and flushes
// it with one SendBatch. Send errors are deliberate best-effort: the protocol
// tolerates loss, and a dead peer must cost nothing but its queue.
//
//rbft:egress
func (e *egress) worker(q *peerQueue) {
	defer e.wg.Done()
	batch := make([]*egressFrame, 0, egressMaxCoalesce)
	payloads := make([][]byte, 0, egressMaxCoalesce)
	for {
		select {
		case <-e.stop:
			return
		case f := <-q.ch:
			batch = drainInto(append(batch[:0], f), q.ch)
		}
		q.depth.Set(int64(len(q.ch)))

		// Log-before-send: nothing in this batch leaves until the WAL has
		// fsynced past its durability horizon. The wait runs here, on the
		// peer's worker, so an fsync stall never reaches the apply loop.
		var walWait time.Duration
		if e.wal != nil {
			var horizon uint64
			for _, f := range batch {
				horizon = max(horizon, f.lsn)
			}
			if horizon > 0 {
				var w0 time.Time
				if e.spans {
					w0 = time.Now()
				}
				if err := e.wal.WaitDurable(horizon); err != nil {
					// A node that cannot persist must not speak (it could
					// equivocate after restart); dropping is indistinguishable
					// from crashing, which the protocol tolerates.
					e.release(batch...)
					continue
				}
				if e.spans {
					walWait = time.Since(w0)
				}
			}
		}

		payloads = payloads[:0]
		for _, f := range batch {
			payloads = append(payloads, f.buf.Bytes())
		}
		_ = e.tr.SendBatch(q.name, payloads)
		if e.spans {
			e.emitReplySpans(batch, walWait)
		}
		e.release(batch...)
	}
}

// emitReplySpans records, for each request a reply frame of the flushed batch
// answered, a wal-durable span (the batch's shared log-before-send wait, when
// one ran) and an egress span (enqueue to post-send, with the WAL wait
// subtracted so the two stages attribute disjoint time). Transit to the client
// is not observable server-side, so runtime traces carry no reply span — the
// critical-path analyzer falls back to execution events.
func (e *egress) emitReplySpans(batch []*egressFrame, walWait time.Duration) {
	now := time.Now()
	for _, f := range batch {
		d := max(now.Sub(f.at)-walWait, 0)
		for req := f.req; req < f.req+types.RequestID(f.answers); req++ {
			if walWait > 0 {
				e.sp.Trace(obs.Event{
					At: now, Type: obs.EvSpan, Stage: obs.StageWALDurable,
					Client: f.client, Req: req, Dur: walWait,
				})
			}
			e.sp.Trace(obs.Event{
				At: now, Type: obs.EvSpan, Stage: obs.StageEgress,
				Client: f.client, Req: req, Dur: d,
			})
		}
	}
}

// release drops one queue reference to each frame. The last one returns the
// frame's buffer to the encode pool, but not the bytes a transport that keeps
// payloads has handed its receivers: only the empty Buf then.
func (e *egress) release(frames ...*egressFrame) {
	for _, f := range frames {
		switch {
		case atomic.AddInt32(&f.refs, -1) > 0: // another queue still holds it
		case e.keeps:
			f.buf.ReleaseKept()
		default:
			f.buf.Release()
		}
	}
}

// wait blocks until every worker has exited (call after closing stop). A
// worker parked inside an in-flight SendBatch exits once that write returns;
// the Transport contract (no send blocks indefinitely) plus tcpnet's write
// deadline bound that, so wait terminates even with a wedged peer.
func (e *egress) wait() { e.wg.Wait() }
