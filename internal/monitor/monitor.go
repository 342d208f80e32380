// Package monitor implements RBFT's monitoring mechanism: per-instance
// throughput accounting with the Δ ratio test, and request-latency tracking
// with the Λ (absolute per-request bound) and Ω (cross-instance per-client
// gap) tests. A violation of any test is grounds for a protocol instance
// change.
package monitor

import (
	"fmt"
	"time"

	"rbft/internal/obs"
	"rbft/internal/types"
)

// Reason identifies which monitoring test fired.
type Reason int

// Monitoring verdict reasons.
const (
	// ReasonNone: no violation.
	ReasonNone Reason = iota
	// ReasonThroughput: t_master / avg(t_backup) fell below Δ.
	ReasonThroughput
	// ReasonLatency: a master-ordered request exceeded Λ.
	ReasonLatency
	// ReasonFairness: a client's average latency on the master exceeds its
	// average on the backups by more than Ω.
	ReasonFairness
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonThroughput:
		return "throughput-delta"
	case ReasonLatency:
		return "latency-lambda"
	case ReasonFairness:
		return "fairness-omega"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// ParseReason maps a Reason.String() value back to the Reason. It is the
// bridge from serialized traces (which carry the string form to keep the
// obs package free of a monitor dependency) back to the typed enum.
func ParseReason(s string) (Reason, bool) {
	for _, r := range []Reason{ReasonNone, ReasonThroughput, ReasonLatency, ReasonFairness} {
		if r.String() == s {
			return r, true
		}
	}
	return ReasonNone, false
}

// Config parameterises the monitor. The paper sets Δ, Λ and Ω from the
// cryptographic costs and network conditions; defaults here are calibrated
// for the simulator.
type Config struct {
	// Instances is the number of protocol instances (f+1).
	Instances int
	// Period is the throughput measurement window.
	Period time.Duration
	// Delta is the minimum acceptable ratio between the master instance's
	// throughput and the best backup instance's throughput (0 < Δ ≤ 1).
	// The paper's overview (§IV-A) compares against the best backup; its
	// §IV-C text says "average". Best is the robust reading: with f ≥ 2 a
	// faulty node hosts some backup instance's primary and can stall that
	// instance, which would drag an average-based threshold down and hand
	// the malicious master primary that much headroom.
	Delta float64
	// Lambda is the maximum acceptable ordering latency for any single
	// master-ordered request. Zero disables the test.
	Lambda time.Duration
	// Omega is the maximum acceptable excess of a client's average latency
	// on the master instance over its average on the backup instances. Zero
	// disables the test.
	Omega time.Duration
	// MinRequests is the minimum number of backup-ordered requests in a
	// period before the Δ test is evaluated, suppressing idle-period noise.
	// In per-lane mode it is the minimum number of requests dispatched to a
	// lane before that lane participates in the Δ comparison.
	MinRequests uint64
	// RecordLatencies keeps a log of every master-ordered request's
	// ordering latency (figure 12 plots this series).
	RecordLatencies bool
	// PerLane adapts the Δ test for multi-primary ordering, where each
	// instance orders a disjoint request partition: instances no longer see
	// the same stream, so raw count ratios are meaningless. Instead the
	// monitor compares per-lane completion ratios (ordered / dispatched):
	// a lane completing a much smaller fraction of its own partition than
	// the best lane marks a slow partition owner. The Λ and Ω gates also
	// evaluate on every lane's deliveries rather than the master's only.
	PerLane bool
}

// LatencyRecord is one master-ordered request's ordering latency.
type LatencyRecord struct {
	Client  types.ClientID
	ID      types.RequestID
	Latency time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Instances == 0 {
		out.Instances = 2
	}
	if out.Period == 0 {
		out.Period = 100 * time.Millisecond
	}
	if out.Delta == 0 {
		out.Delta = 0.9
	}
	if out.MinRequests == 0 {
		out.MinRequests = 10
	}
	return out
}

// Verdict is the outcome of a monitoring check.
type Verdict struct {
	Suspicious bool
	Reason     Reason
	// Ratio is the observed master/backup throughput ratio (Δ test only).
	Ratio float64
}

// clientLat tracks a windowed average latency per instance for one client.
type clientLat struct {
	sum   []time.Duration
	count []uint64
}

// Monitor implements the node's Dispatch & Monitoring accounting. Not safe
// for concurrent use; the owning node serialises access.
type Monitor struct {
	cfg Config

	counts      []uint64 // ordered requests per instance, current period
	dispatched  []uint64 // per-lane dispatches, current period (PerLane only)
	periodStart time.Time
	started     bool

	throughput []float64 // last completed period, req/s per instance

	clients map[types.ClientID]*clientLat

	latencyLog []LatencyRecord

	// tr receives verdict events; latHist, when wired to a registry,
	// accumulates master-ordering latencies.
	tr      obs.Tracer
	latHist *obs.Histogram
}

// New creates a monitor.
func New(cfg Config) *Monitor {
	c := cfg.withDefaults()
	return &Monitor{
		cfg:        c,
		counts:     make([]uint64, c.Instances),
		dispatched: make([]uint64, c.Instances),
		throughput: make([]float64, c.Instances),
		clients:    make(map[types.ClientID]*clientLat),
		tr:         obs.Nop{},
	}
}

// SetTracer installs an event sink. The monitor emits an EvVerdict for
// every closed Δ period (reason "none" when passing, with the measured
// ratio and per-instance throughput) and for every Λ/Ω violation (with the
// offending measurement in seconds). Callers pass a node-stamped tracer.
func (m *Monitor) SetTracer(t obs.Tracer) { m.tr = obs.OrNop(t) }

// SetRegistry wires the monitor's metrics: the ordering-latency histogram
// over master-ordered requests.
func (m *Monitor) SetRegistry(reg *obs.Registry) {
	m.latHist = reg.Histogram("rbft_ordering_latency_seconds", obs.LatencyBuckets)
}

// RequestDispatched records that the node handed a request to its local
// replicas for ordering: to lane alone in per-lane mode (counted against it
// for the per-lane Δ test), to every instance otherwise (lane is the master).
// The node keeps the dispatch time itself and passes it to RequestOrdered.
func (m *Monitor) RequestDispatched(lane types.InstanceID, now time.Time) {
	if !m.started {
		m.started = true
		m.periodStart = now
	}
	if int(lane) < len(m.dispatched) {
		m.dispatched[lane]++
	}
}

// RequestOrdered records that instance inst delivered the request the node
// dispatched at dispatchedAt, returning a verdict from the latency tests when
// inst is the master. A zero dispatchedAt means the node no longer holds the
// request (it executed) or never dispatched it: only the count moves.
func (m *Monitor) RequestOrdered(inst types.InstanceID, ref types.RequestRef, dispatchedAt, now time.Time) Verdict {
	if int(inst) < len(m.counts) {
		m.counts[inst]++
	}
	if dispatchedAt.IsZero() {
		return Verdict{}
	}
	lat := now.Sub(dispatchedAt)
	cl := m.clients[ref.Client]
	if cl == nil {
		cl = &clientLat{
			sum:   make([]time.Duration, m.cfg.Instances),
			count: make([]uint64, m.cfg.Instances),
		}
		m.clients[ref.Client] = cl
	}
	if int(inst) < m.cfg.Instances {
		cl.sum[inst] += lat
		cl.count[inst]++
	}

	// In master-only mode a request "completes" when the master orders it;
	// in per-lane mode it completes when its owning lane (the only one it
	// was dispatched to) delivers it.
	if !m.cfg.PerLane && inst != types.MasterInstance {
		return Verdict{}
	}
	if m.cfg.RecordLatencies {
		m.latencyLog = append(m.latencyLog, LatencyRecord{
			Client: ref.Client, ID: ref.ID, Latency: lat,
		})
	}
	m.latHist.Observe(lat.Seconds())

	if m.cfg.Lambda > 0 && lat > m.cfg.Lambda {
		if m.tr.Enabled() {
			m.tr.Trace(obs.Event{
				At: now, Type: obs.EvVerdict, Instance: inst,
				Client: ref.Client, Req: ref.ID,
				Reason: ReasonLatency.String(), Value: lat.Seconds(),
			})
		}
		return Verdict{Suspicious: true, Reason: ReasonLatency}
	}
	if m.cfg.Omega > 0 {
		if v, gap := m.checkFairness(cl); v.Suspicious {
			if m.tr.Enabled() {
				m.tr.Trace(obs.Event{
					At: now, Type: obs.EvVerdict, Instance: inst,
					Client: ref.Client, Req: ref.ID,
					Reason: ReasonFairness.String(), Value: gap.Seconds(),
				})
			}
			return v
		}
	}
	return Verdict{}
}

// checkFairness compares the client's average master latency against its
// average latency across backup instances (Ω test), returning the verdict
// and the measured master-over-backup gap.
func (m *Monitor) checkFairness(cl *clientLat) (Verdict, time.Duration) {
	master := types.MasterInstance
	if cl.count[master] == 0 {
		return Verdict{}, 0
	}
	masterAvg := cl.sum[master] / time.Duration(cl.count[master])
	var backupSum time.Duration
	var backupCount uint64
	for i := 0; i < m.cfg.Instances; i++ {
		if types.InstanceID(i) == master {
			continue
		}
		backupSum += cl.sum[i]
		backupCount += cl.count[i]
	}
	if backupCount == 0 {
		return Verdict{}, 0
	}
	backupAvg := backupSum / time.Duration(backupCount)
	gap := masterAvg - backupAvg
	if gap > m.cfg.Omega {
		return Verdict{Suspicious: true, Reason: ReasonFairness}, gap
	}
	return Verdict{}, gap
}

// NextWake returns when the current measurement period ends (zero before the
// first dispatch).
func (m *Monitor) NextWake() time.Time {
	if !m.started {
		return time.Time{}
	}
	return m.periodStart.Add(m.cfg.Period)
}

// Tick closes the measurement period if due and runs the Δ test.
func (m *Monitor) Tick(now time.Time) Verdict {
	if !m.started || now.Before(m.periodStart.Add(m.cfg.Period)) {
		return Verdict{}
	}
	elapsed := now.Sub(m.periodStart).Seconds()
	var backupBest uint64
	for i := range m.counts {
		m.throughput[i] = float64(m.counts[i]) / elapsed
		if types.InstanceID(i) != types.MasterInstance && m.counts[i] > backupBest {
			backupBest = m.counts[i]
		}
	}
	masterCount := m.counts[types.MasterInstance]

	verdict := Verdict{Ratio: 1}
	if m.cfg.PerLane {
		verdict = m.perLaneVerdict()
	} else if backupBest >= m.cfg.MinRequests {
		ratio := float64(masterCount) / float64(backupBest)
		verdict.Ratio = ratio
		if ratio < m.cfg.Delta {
			verdict.Suspicious = true
			verdict.Reason = ReasonThroughput
		}
	}
	if m.tr.Enabled() {
		m.tr.Trace(obs.Event{
			At: now, Type: obs.EvVerdict,
			Reason: verdict.Reason.String(), Value: verdict.Ratio,
			Values: m.Throughput(),
		})
	}

	for i := range m.counts {
		m.counts[i] = 0
		m.dispatched[i] = 0
	}
	m.periodStart = now
	return verdict
}

// perLaneVerdict runs the partition-aware Δ test: each lane's completion
// ratio (ordered / dispatched this period) is compared, and the period is
// suspicious when the worst lane completes less than Δ of the best lane's
// fraction. Only lanes with at least MinRequests dispatches participate, so
// an idle or lightly-loaded partition neither accuses nor excuses anyone.
func (m *Monitor) perLaneVerdict() Verdict {
	verdict := Verdict{Ratio: 1}
	best, worst := -1.0, -1.0
	for i := range m.counts {
		if m.dispatched[i] < m.cfg.MinRequests {
			continue
		}
		r := float64(m.counts[i]) / float64(m.dispatched[i])
		if best < 0 || r > best {
			best = r
		}
		if worst < 0 || r < worst {
			worst = r
		}
	}
	if best <= 0 {
		return verdict
	}
	verdict.Ratio = worst / best
	if verdict.Ratio < m.cfg.Delta {
		verdict.Suspicious = true
		verdict.Reason = ReasonThroughput
	}
	return verdict
}

// Throughput returns the per-instance throughput (req/s) measured in the last
// completed period. The slice is a copy.
func (m *Monitor) Throughput() []float64 {
	out := make([]float64, len(m.throughput))
	copy(out, m.throughput)
	return out
}

// LatencyLog returns the recorded master-ordering latencies (requires
// Config.RecordLatencies). The slice is a copy.
func (m *Monitor) LatencyLog() []LatencyRecord {
	return append([]LatencyRecord(nil), m.latencyLog...)
}

// Reset clears all counters and latency state, e.g. after an instance change
// so the new master starts from a clean slate.
func (m *Monitor) Reset(now time.Time) {
	for i := range m.counts {
		m.counts[i] = 0
		m.dispatched[i] = 0
	}
	m.periodStart = now
	m.clients = make(map[types.ClientID]*clientLat)
	// Dispatch times, kept by the node, survive: in-flight requests are
	// still being ordered.
}
