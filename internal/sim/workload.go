package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"rbft/internal/client"
	"rbft/internal/message"
	"rbft/internal/types"
)

// Phase is one segment of a workload: a number of active open-loop clients,
// each sending at RatePerClient, for Duration.
type Phase struct {
	Duration      time.Duration
	Clients       int
	RatePerClient float64 // requests per second per client
	// OpenLoop switches the phase from per-client generators to one
	// aggregate arrival process: Clients is the addressable population and
	// requests arrive at Clients x RatePerClient per second, each arrival
	// cycling through the population. Clients are instantiated lazily — a
	// million-client front door only ever materialises the clients that
	// actually send — which is the regime the bounded client table is sized
	// for.
	OpenLoop bool
}

// Workload drives the simulated clients.
type Workload struct {
	// RequestSize is the operation payload size in bytes.
	RequestSize int
	// Phases execute in order; the last phase's client population persists
	// until the run ends.
	Phases []Phase
	// KV, when set, switches the clients from opaque fixed payloads to KV
	// operations over a Zipfian key population, and every node runs the
	// keyed store application (app.KV) instead of the default. This is the
	// workload the parallel execution model (Config.ExecWorkers) is
	// exercised with: conflict density is controlled by Keys and ZipfS.
	KV *KVWorkload
}

// KVWorkload parameterises the Zipfian key-value workload.
type KVWorkload struct {
	// Keys is the key-population size (minimum 2).
	Keys int
	// ZipfS is the Zipf skew exponent (must be > 1; 0 means the 1.1 default).
	// Larger values concentrate traffic on fewer keys — more conflicts.
	ZipfS float64
	// ReadFraction is the probability a request is a GET (0 = all writes).
	ReadFraction float64
}

// kvOpGen draws KV operations for the clients. PUT values are padded so
// every operation is RequestSize bytes — the size the cost model charges.
type kvOpGen struct {
	zipf         *rand.Zipf
	readFraction float64
	size         int
}

func newKVOpGen(cfg *KVWorkload, size int, rng *rand.Rand) *kvOpGen {
	keys := max(cfg.Keys, 2)
	skew := cfg.ZipfS
	if skew <= 1 {
		skew = 1.1
	}
	return &kvOpGen{
		zipf:         rand.NewZipf(rng, skew, 1, uint64(keys-1)),
		readFraction: cfg.ReadFraction,
		size:         size,
	}
}

// next draws one operation, reporting whether it is a read (a GET — the
// operations Config.SpeculativeReads routes through the read-only fast
// path). Each call allocates a fresh slice: the client retains the op inside
// its pending request for retransmission.
func (g *kvOpGen) next(rng *rand.Rand) (op []byte, isRead bool) {
	key := g.zipf.Uint64()
	if rng.Float64() < g.readFraction {
		return []byte(fmt.Sprintf("GET k%d", key)), true
	}
	op = []byte(fmt.Sprintf("PUT k%d ", key))
	pad := max(g.size-len(op), 1)
	for i := 0; i < pad; i++ {
		op = append(op, 'a'+byte(i%26))
	}
	return op, false
}

func (w Workload) maxClients() (n int) {
	for _, p := range w.Phases {
		n = max(n, p.Clients)
	}
	return n
}

// StaticLoad is the paper's static workload: a fixed saturating client
// population sending at a constant rate.
func StaticLoad(clients int, ratePerClient float64, requestSize int) Workload {
	return Workload{
		RequestSize: requestSize,
		Phases:      []Phase{{Duration: 0, Clients: clients, RatePerClient: ratePerClient}},
	}
}

// DynamicLoad is the paper's dynamic workload: start with one client,
// progressively increase to ten, spike to fifty, then ramp back down to one.
// stepDur is the duration of each population step.
func DynamicLoad(ratePerClient float64, requestSize int, stepDur time.Duration) Workload {
	var phases []Phase
	for c := 1; c <= 10; c += 3 {
		phases = append(phases, Phase{Duration: stepDur, Clients: c, RatePerClient: ratePerClient})
	}
	phases = append(phases, Phase{Duration: stepDur, Clients: 50, RatePerClient: ratePerClient})
	for c := 10; c >= 1; c -= 3 {
		phases = append(phases, Phase{Duration: stepDur, Clients: c, RatePerClient: ratePerClient})
	}
	return Workload{RequestSize: requestSize, Phases: phases}
}

// simClient wraps a client state machine with its open-loop generator state.
type simClient struct {
	cl      *client.Client
	id      types.ClientID
	active  bool
	rate    float64
	op      []byte
	timerAt time.Time
}

// clientRetransmitTimeout is how long a simulated client waits for f+1
// matching replies before it retransmits.
const clientRetransmitTimeout = 2 * time.Second

// setupClients prepares the client population without materialising it:
// clients are instantiated lazily by clientAt the first time they send, so a
// huge addressable population costs one pointer slot per client until used.
func (s *Sim) setupClients() {
	op := make([]byte, s.cfg.Workload.RequestSize)
	for i := range op {
		op[i] = byte(i * 31)
	}
	s.clientOp = op
	if s.cfg.Workload.KV != nil {
		s.kvOps = newKVOpGen(s.cfg.Workload.KV, s.cfg.Workload.RequestSize, s.rng)
	}
	s.clients = make([]*simClient, s.cfg.Workload.maxClients())
}

// clientAt returns client i, instantiating it on first use. Instantiation
// draws no randomness, so lazy creation leaves same-seed traces unchanged.
func (s *Sim) clientAt(i int) *simClient {
	if sc := s.clients[i]; sc != nil {
		return sc
	}
	id := types.ClientID(i)
	sc := &simClient{
		cl: client.New(client.Config{
			Cluster:           s.cluster,
			ID:                id,
			RetransmitTimeout: clientRetransmitTimeout,
		}, s.ks.ClientRing(id)),
		id: id,
		op: s.clientOp,
	}
	s.clients[i] = sc
	return sc
}

// startWorkload schedules the phase transitions.
func (s *Sim) startWorkload() {
	at := s.now
	for i, p := range s.cfg.Workload.Phases {
		s.schedule(at, func() { s.applyPhase(p) })
		if i < len(s.cfg.Workload.Phases)-1 {
			at = at.Add(p.Duration)
		}
	}
}

func (s *Sim) applyPhase(p Phase) {
	// Each transition supersedes any running open-loop arrival process.
	s.olEpoch++
	if p.OpenLoop {
		for _, sc := range s.clients {
			if sc != nil {
				sc.active = false
			}
		}
		if p.Clients <= 0 || p.RatePerClient <= 0 {
			return
		}
		ep := s.olEpoch
		s.schedule(s.now, func() { s.openLoopArrival(p, ep) })
		return
	}
	// Closed-loop phase: clients 0..Clients-1 each run their own generator.
	// Instantiation is in ascending id order and activation draws happen only
	// for newly-active clients, exactly as when the population was eager —
	// same-seed traces are unchanged.
	for i := range s.clients {
		if i >= p.Clients {
			if sc := s.clients[i]; sc != nil {
				sc.active = false
			}
			continue
		}
		sc := s.clientAt(i)
		wasActive := sc.active
		sc.active = true
		sc.rate = p.RatePerClient
		if !wasActive {
			// Stagger activations slightly to avoid phase-locked bursts.
			delay := time.Duration(s.rng.Int63n(int64(time.Millisecond) + 1))
			s.schedule(s.now.Add(delay), func() { s.clientSend(sc) })
		}
	}
}

// openLoopArrival issues one request from the aggregate arrival process and
// schedules the next. Arrivals cycle through the population, so a population
// larger than the run's arrival count touches each client at most once.
func (s *Sim) openLoopArrival(p Phase, ep int) {
	if ep != s.olEpoch {
		return // a later phase superseded this arrival process
	}
	sc := s.clientAt(s.olNext % p.Clients)
	s.olNext++
	s.issueRequest(sc)

	// Next arrival at the aggregate rate with ±20% jitter.
	interval := time.Duration(float64(time.Second) / (float64(p.Clients) * p.RatePerClient))
	jitter := time.Duration((s.rng.Float64() - 0.5) * 0.4 * float64(interval))
	s.schedule(s.now.Add(interval+jitter), func() { s.openLoopArrival(p, ep) })
}

// clientSend emits one request and schedules the next per the open-loop rate.
func (s *Sim) clientSend(sc *simClient) {
	if !sc.active || sc.rate <= 0 {
		return
	}
	s.issueRequest(sc)

	// Next send: deterministic interval with ±20% jitter.
	interval := time.Duration(float64(time.Second) / sc.rate)
	jitter := time.Duration((s.rng.Float64() - 0.5) * 0.4 * float64(interval))
	s.schedule(s.now.Add(interval+jitter), func() { s.clientSend(sc) })
}

// issueRequest draws one operation for sc, signs and broadcasts it. KV GETs
// go through the speculative read-only path when Config.SpeculativeReads is
// on; everything else (and every request when it is off) is ordered normally.
func (s *Sim) issueRequest(sc *simClient) {
	op := sc.op
	isRead := false
	if s.kvOps != nil {
		op, isRead = s.kvOps.next(s.rng)
	}
	var req *message.Request
	if isRead && s.cfg.SpeculativeReads {
		req = sc.cl.NewReadRequest(op, s.now)
	} else {
		req = sc.cl.NewRequest(op, s.now)
	}
	s.broadcastRequest(sc, req)
	s.armClientTimer(sc)
}

// broadcastRequest transmits a request to every node through each node's
// client NIC, applying the worst-attack-1 MAC corruption if configured.
func (s *Sim) broadcastRequest(sc *simClient, req *message.Request) {
	sent := encode(req)
	for _, sn := range s.nodes {
		frame := sent
		if s.corruptFor(sn.id) {
			bad := *req
			bad.Auth = append([]byte(nil), req.Auth...)
			bad.Auth.Entry(int(sn.id))[0] ^= 0xff
			frame = encode(&bad)
		}
		arrive := s.book(&sn.clientRx, len(frame), s.transit)
		s.schedule(arrive, func() { s.deliverFromClient(sn, frame, sc.id) })
	}
}

func (s *Sim) corruptFor(n types.NodeID) bool { return slices.Contains(s.cfg.CorruptClientAuthFor, n) }

// clientReceive processes a frame at the client in the order of
// ClientRuntime.handlePacket: a node sent it, it decodes, it is a REPLY.
func (s *Sim) clientReceive(sc *simClient, frame []byte, from types.NodeID) {
	if from < 0 || int(from) >= s.cluster.N {
		return
	}
	msg, err := message.Decode(frame)
	if err != nil {
		return
	}
	rep, ok := msg.(*message.Reply)
	if !ok {
		return
	}
	var one [1]client.Completed
	done := sc.cl.OnReplies(rep, from, s.now, one[:0])
	if len(done) == 0 {
		// A refuted read pulls its deadline to now (client.OnReplies); re-arm
		// so the fallback to ordering fires immediately rather than at the
		// stale retransmission wake-up.
		s.armClientTimer(sc)
		return
	}
	for _, d := range done {
		s.metrics.recordCompletion(sc.id, d, s.now, s.cfg.TrackClientLatency)
	}
}

// armClientTimer keeps one pending retransmission wake-up per client.
func (s *Sim) armClientTimer(sc *simClient) {
	wake := sc.cl.NextWake()
	if wake.IsZero() || wake.After(s.endAt) {
		return
	}
	if !sc.timerAt.IsZero() && !sc.timerAt.After(wake) && sc.timerAt.After(s.now) {
		return
	}
	sc.timerAt = wake
	s.schedule(wake, func() { s.fireClientTimer(sc) })
}

func (s *Sim) fireClientTimer(sc *simClient) {
	sc.timerAt = time.Time{}
	for _, req := range sc.cl.Tick(s.now) {
		s.broadcastRequest(sc, req)
	}
	s.armClientTimer(sc)
}
