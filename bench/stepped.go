package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rbft/internal/app"
	"rbft/internal/client"
	"rbft/internal/core"
	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/monitor"
	"rbft/internal/obs"
	"rbft/internal/runtime"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// The stepped pass: one goroutine owns four core.Nodes and one client on a
// benchmark-controlled clock and moves every message itself, so each call
// into a layer can be wrapped in a span and every count repeats exactly for
// a given seed. It replays the workload's op stream at the rate phase's
// inter-arrival time, which gives it the rate phase's batching.

// steppedRequests is how many requests the stepped pass replays.
const steppedRequests = 2000

// spansPerRequest sizes the span buffer (measured: 115 on small-mem, 175 on
// kv-tcp-wal, whose smaller batches mean more protocol messages per request;
// the rest is headroom, and an overflow fails the run).
const spansPerRequest = 320

// frame is one message in flight inside the stepped cluster.
type frame struct {
	toClient bool
	from     types.NodeID
	fromCli  bool
	to       types.NodeID
	data     []byte
	cause    int32 // the span that produced this frame
	trace    uint64
}

type stepped struct {
	w      workload
	cfg    types.Config
	nodes  []*core.Node
	wals   []*wal.Log
	walDir string
	walReg *obs.Registry
	cl     *client.Client
	ops    [][]byte
	byID   map[types.RequestID][]byte // op of each in-flight request, for the reply check

	now   time.Time
	queue []frame
	head  int
	spans *spanBuf
	// curCore is the core span currently executing, the parent of any
	// app.execute span the node's application records meanwhile.
	curCore int32

	frames, frameBytes, propagateBytes uint64
	applyCalls, records                uint64
	completed                          int
	err                                error
}

// tracedApp records an app.execute span around every Execute. It forwards
// ConflictKeyer (tracedKeyedApp) so wrapping never demotes a keyed
// application to the serial execution path.
type tracedApp struct {
	inner app.Application
	s     *stepped
}

func (a *tracedApp) Execute(c types.ClientID, id types.RequestID, op []byte) []byte {
	sp := a.s.spans.begin(spAppExecute, a.s.curCore, requestTrace(c, id))
	res := a.inner.Execute(c, id, op)
	a.s.spans.end(sp)
	return res
}

type tracedKeyedApp struct {
	*tracedApp
	keyer app.ConflictKeyer
}

func (a *tracedKeyedApp) Keys(op []byte) (reads, writes []string) { return a.keyer.Keys(op) }

func requestTrace(c types.ClientID, id types.RequestID) uint64 {
	return uint64(c)<<48 | uint64(id)&(1<<48-1)
}

// traceOf names the request or batch a message belongs to.
func traceOf(msg message.Message) uint64 {
	batch := func(inst types.InstanceID, seq types.SeqNum) uint64 {
		return 1<<63 | uint64(inst)<<48 | uint64(seq)&(1<<48-1)
	}
	switch m := msg.(type) {
	case *message.Request:
		return requestTrace(m.Client, m.ID)
	case *message.Propagate:
		return requestTrace(m.Req.Client, m.Req.ID)
	case *message.Reply:
		return requestTrace(m.Client, m.ID)
	case *message.PrePrepare:
		return batch(m.Instance, m.Seq)
	case *message.Prepare:
		return batch(m.Instance, m.Seq)
	case *message.Commit:
		return batch(m.Instance, m.Seq)
	}
	return 0
}

// newStepped builds the four nodes the way runtime.LocalCluster does (its
// per-node defaults are not exported, so they are mirrored here: 2 ms batch
// timeout, 250 ms monitoring period, delta 0.5, 32 requests minimum).
func newStepped(w workload, ops [][]byte, dataRoot string) (*stepped, error) {
	s := &stepped{
		w:       w,
		cfg:     types.NewConfig(1),
		ops:     ops,
		byID:    make(map[types.RequestID][]byte),
		spans:   newSpanBuf(steppedRequests * spansPerRequest),
		curCore: -1,
		walReg:  obs.NewRegistry(),
	}
	const maxClients = 64
	ks := crypto.NewKeyStore([]byte("rbft-local-cluster"), s.cfg.N, maxClients)
	if w.durable {
		dir, err := os.MkdirTemp(dataRoot, "stepped-wal-")
		if err != nil {
			return nil, err
		}
		s.walDir = dir
	}
	for i := 0; i < s.cfg.N; i++ {
		id := types.NodeID(i)
		var inner app.Application = app.Null{}
		if w.ops == opKV {
			inner = app.NewKV()
		}
		var wrapped app.Application = &tracedApp{inner: inner, s: s}
		if k, ok := inner.(app.ConflictKeyer); ok {
			wrapped = &tracedKeyedApp{tracedApp: wrapped.(*tracedApp), keyer: k}
		}
		ring := ks.NodeRing(id)
		ring.WarmPairKeys(s.cfg.N, maxClients)
		node := core.New(core.Config{
			Cluster:      s.cfg,
			Node:         id,
			App:          wrapped,
			Monitoring:   monitor.Config{Period: 250 * time.Millisecond, Delta: 0.5, MinRequests: 32},
			BatchTimeout: 2 * time.Millisecond,
			ExecWorkers:  w.execWorkers,
			Durable:      w.durable,
		}, ring)
		s.nodes = append(s.nodes, node)
		if w.durable {
			l, err := runtime.OpenNodeWAL(node, walOptions(filepath.Join(s.walDir, fmt.Sprintf("node-%d", i))), s.walReg)
			if err != nil {
				s.close()
				return nil, err
			}
			s.wals = append(s.wals, l)
		}
	}
	s.cl = client.New(client.Config{Cluster: s.cfg, ID: 0}, ks.ClientRing(0))
	return s, nil
}

// walOptions are the live cluster's WAL options for a node directory.
func walOptions(dir string) wal.Options {
	o := wal.Options{Dir: dir}
	tuneWAL(&o)
	return o
}

func (s *stepped) close() {
	for _, l := range s.wals {
		l.Close()
	}
	if s.walDir != "" {
		os.RemoveAll(s.walDir)
	}
}

// run replays n requests at the workload's inter-arrival time and then lets
// the timers run until every request has completed.
func (s *stepped) run(n int) error {
	interval := time.Second / time.Duration(s.w.rate)
	epoch := time.Now()
	s.now = epoch
	for i := 0; i < n && s.err == nil; i++ {
		s.advance(epoch.Add(time.Duration(i) * interval))
		s.issue(s.ops[i%len(s.ops)])
		s.drain()
	}
	deadline := s.now.Add(5 * time.Second)
	for s.completed < n && s.err == nil {
		wake := s.nextWake()
		if wake.IsZero() || wake.After(deadline) {
			return fmt.Errorf("stepped pass: %d of %d requests completed", s.completed, n)
		}
		s.advance(wake)
	}
	return s.err
}

func (s *stepped) nextWake() time.Time {
	var wake time.Time
	for _, n := range s.nodes {
		if w := n.NextWake(); !w.IsZero() && (wake.IsZero() || w.Before(wake)) {
			wake = w
		}
	}
	return wake
}

// advance moves the clock to t, firing every node timer due on the way in
// deadline order.
func (s *stepped) advance(t time.Time) {
	for s.err == nil {
		wake := s.nextWake()
		if wake.IsZero() || wake.After(t) {
			break
		}
		if wake.After(s.now) {
			s.now = wake
		}
		for i, n := range s.nodes {
			if w := n.NextWake(); !w.IsZero() && !s.now.Before(w) {
				sp := s.spans.begin(spCoreTick, -1, 0)
				s.curCore = sp
				out := n.Tick(s.now)
				s.spans.end(sp)
				s.applyCalls++
				s.emit(types.NodeID(i), out, sp)
			}
		}
		s.drain()
	}
	if t.After(s.now) {
		s.now = t
	}
}

// issue signs one request and hands a copy to every node.
func (s *stepped) issue(op []byte) {
	s0 := s.spans.begin(spClientNewRequest, -1, 0)
	req := s.cl.NewRequest(op, s.now)
	s.spans.end(s0)
	trace := requestTrace(req.Client, req.ID)
	if s0 >= 0 {
		s.spans.spans[s0].trace = trace
	}
	s.byID[req.ID] = op
	s1 := s.spans.begin(spMessageMarshal, s0, trace)
	data := req.Marshal(nil)
	s.spans.end(s1)
	for i := range s.nodes {
		s.send(frame{fromCli: true, to: types.NodeID(i), cause: s1, trace: trace}, data)
	}
}

// send copies the encoded frame for one recipient, as memnet and the socket
// transports do, and queues it.
func (s *stepped) send(f frame, encoded []byte) {
	sp := s.spans.begin(spTransportDeliver, f.cause, f.trace)
	f.data = append([]byte(nil), encoded...)
	s.spans.end(sp)
	f.cause = sp
	s.frames++
	s.frameBytes += uint64(len(f.data))
	s.queue = append(s.queue, f)
}

// drain delivers queued frames in FIFO order until none is in flight.
func (s *stepped) drain() {
	for s.head < len(s.queue) && s.err == nil {
		f := s.queue[s.head]
		s.queue[s.head] = frame{}
		s.head++
		if f.toClient {
			s.deliverReply(f)
		} else {
			s.deliverToNode(f)
		}
	}
	s.queue, s.head = s.queue[:0], 0
}

func (s *stepped) deliverToNode(f frame) {
	node := s.nodes[f.to]
	pre := node.Preverifier()
	var v *message.Verified
	var err error
	var sp int32
	if f.fromCli {
		sp = s.spans.begin(spMessagePreverifyClient, f.cause, f.trace)
		v, err = pre.PreverifyClientFrame(f.data, s.cl.ID())
	} else {
		sp = s.spans.begin(spMessagePreverifyNode, f.cause, f.trace)
		v, err = pre.PreverifyNodeFrame(f.data, f.from)
	}
	s.spans.end(sp)
	if err != nil {
		s.err = fmt.Errorf("stepped pass: node %d rejected a frame: %w", f.to, err)
		return
	}
	sa := s.spans.begin(spCoreOnVerified, sp, f.trace)
	s.curCore = sa
	out := node.OnVerified(v, s.now)
	s.spans.end(sa)
	s.applyCalls++
	s.emit(f.to, out, sa)
}

func (s *stepped) deliverReply(f frame) {
	sd := s.spans.begin(spMessageDecodeReply, f.cause, f.trace)
	msg, err := message.Decode(f.data)
	s.spans.end(sd)
	rep, ok := msg.(*message.Reply)
	if err != nil || !ok {
		s.err = fmt.Errorf("stepped pass: undecodable reply: %v", err)
		return
	}
	so := s.spans.begin(spClientOnReply, sd, f.trace)
	done, ok := s.cl.OnReply(rep, f.from, s.now)
	s.spans.end(so)
	if !ok {
		return
	}
	if err := checkResult(s.w, s.byID[done.ID], done.Result); err != nil {
		s.err = fmt.Errorf("stepped pass: %w", err)
	}
	delete(s.byID, done.ID)
	s.completed++
}

// emit does the driver's part for one node output: persist the records
// before anything is sent (log-before-send), encode each message once, and
// fan it out.
func (s *stepped) emit(from types.NodeID, out core.Output, cause int32) {
	if len(out.InstanceChanges) > 0 {
		s.err = fmt.Errorf("stepped pass: unexpected instance change on node %d", from)
		return
	}
	s.records += uint64(len(out.Records))
	if s.w.durable && len(out.Records) > 0 {
		l := s.wals[from]
		sw := s.spans.begin(spWALAppend, cause, 0)
		lsn, err := l.Append(out.Records...)
		s.spans.end(sw)
		if err == nil {
			sd := s.spans.begin(spWALWaitDurable, sw, 0)
			err = l.WaitDurable(lsn)
			s.spans.end(sd)
		}
		if err != nil {
			s.err = fmt.Errorf("stepped pass: wal: %w", err)
			return
		}
	}
	for _, nm := range out.NodeMsgs {
		trace := traceOf(nm.Msg)
		se := s.spans.begin(spMessageEncode, cause, trace)
		buf := message.Encode(nm.Msg)
		s.spans.end(se)
		_, isPropagate := nm.Msg.(*message.Propagate)
		deliver := func(to types.NodeID) {
			if isPropagate {
				s.propagateBytes += uint64(buf.Len())
			}
			s.send(frame{from: from, to: to, cause: se, trace: trace}, buf.Bytes())
		}
		if nm.To == nil {
			for i := range s.nodes {
				if types.NodeID(i) != from {
					deliver(types.NodeID(i))
				}
			}
		} else {
			for _, to := range nm.To {
				deliver(to)
			}
		}
		buf.Release()
	}
	for _, cm := range out.ClientMsgs {
		trace := traceOf(cm.Msg)
		se := s.spans.begin(spMessageEncode, cause, trace)
		buf := message.Encode(cm.Msg)
		s.spans.end(se)
		s.send(frame{toClient: true, from: from, cause: se, trace: trace}, buf.Bytes())
		buf.Release()
	}
}

// sigCacheHitFrac is the share of request-signature checks answered from
// the preverify stage's cache, over all four nodes.
func (s *stepped) sigCacheHitFrac() float64 {
	var hits, misses uint64
	for _, n := range s.nodes {
		h, m := n.Preverifier().Cache().Stats()
		hits += h
		misses += m
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
