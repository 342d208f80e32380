package sim

import (
	"math"
	"sort"
	"time"

	"rbft/internal/client"
	"rbft/internal/monitor"
	"rbft/internal/obs"
	"rbft/internal/types"
)

// ICRecord is one observed protocol instance change.
type ICRecord struct {
	At      time.Time
	Node    types.NodeID
	CPI     uint64
	NewView types.View
	Reason  monitor.Reason
}

// MonitorSample is one node's per-instance throughput reading (figures 9
// and 11 plot these).
type MonitorSample struct {
	At         time.Time
	Node       types.NodeID
	Throughput []float64 // req/s per instance
}

// LatencyPoint is one completed request's latency as its client measured it
// (Config.TrackClientLatency). Figure 12 plots the monitor's ordering
// latencies instead (monitor.Config.RecordLatencies).
type LatencyPoint struct {
	Client  types.ClientID
	ID      types.RequestID
	At      time.Time
	Latency time.Duration
}

// Metrics accumulates raw observations during a run. It aggregates the
// node-side series from the protocol event trace — Metrics is an obs.Tracer
// installed on every simulated node — while client-side completions are
// recorded directly by the simulated clients (they sit outside the traced
// node stack).
type Metrics struct {
	cluster types.Config

	start, end time.Time // measurement window (after warmup)

	completions    int
	latencySum     time.Duration
	latencies      []time.Duration
	clientSeries   []LatencyPoint
	executed       []int   // per node, within window
	orderedByInst  [][]int // per node per instance, cumulative (whole run)
	icEvents       []ICRecord
	nicCloses      int
	monitorSamples []MonitorSample
}

// Enabled implements obs.Tracer.
func (m *Metrics) Enabled() bool { return true }

// WantSpans implements obs.SpanSink: the aggregator folds protocol events
// into scalar results and ignores spans, so a metrics-only run (every
// benchmark) must not pay for span emission.
func (m *Metrics) WantSpans() bool { return false }

// Trace implements obs.Tracer: trace events are folded into the run's
// aggregate series. Unhandled event types (phase transitions, verdicts,
// request lifecycle) pass through untouched — they exist for the JSONL
// trace sinks.
func (m *Metrics) Trace(ev obs.Event) {
	switch ev.Type {
	case obs.EvExecuted:
		if m.inWindow(ev.At) && int(ev.Node) < len(m.executed) {
			m.executed[ev.Node]++
		}
	case obs.EvOrdered:
		if int(ev.Node) < len(m.orderedByInst) && int(ev.Instance) < len(m.orderedByInst[ev.Node]) {
			m.orderedByInst[ev.Node][ev.Instance] += ev.Count
		}
	case obs.EvInstanceChangeComplete:
		reason, _ := monitor.ParseReason(ev.Reason)
		m.icEvents = append(m.icEvents, ICRecord{
			At: ev.At, Node: ev.Node, CPI: ev.CPI, NewView: ev.View, Reason: reason,
		})
	case obs.EvNICClose:
		m.nicCloses++
	case obs.EvMonitorSample:
		m.monitorSamples = append(m.monitorSamples, MonitorSample{
			At: ev.At, Node: ev.Node, Throughput: ev.Values,
		})
	}
}

func newMetrics(cluster types.Config) *Metrics {
	m := &Metrics{
		cluster:  cluster,
		executed: make([]int, cluster.N),
	}
	m.orderedByInst = make([][]int, cluster.N)
	for i := range m.orderedByInst {
		m.orderedByInst[i] = make([]int, cluster.Instances())
	}
	return m
}

func (m *Metrics) inWindow(now time.Time) bool {
	return !now.Before(m.start) && !now.After(m.end)
}

func (m *Metrics) recordCompletion(id types.ClientID, done client.Completed, now time.Time, trackSeries bool) {
	if trackSeries {
		m.clientSeries = append(m.clientSeries, LatencyPoint{
			Client: id, ID: done.ID, At: now, Latency: done.Latency,
		})
	}
	if !m.inWindow(now) {
		return
	}
	m.completions++
	m.latencySum += done.Latency
	m.latencies = append(m.latencies, done.Latency)
}

// Result is the summary of one simulation run.
type Result struct {
	// Window is the measurement window length (run duration minus warmup).
	Window time.Duration
	// Completed counts client-accepted requests within the window.
	Completed int
	// Throughput is Completed divided by the window, in req/s.
	Throughput float64
	// AvgLatency, P50Latency and P99Latency summarise client-observed
	// latency within the window.
	AvgLatency time.Duration
	P50Latency time.Duration
	P99Latency time.Duration
	// ExecutedPerNode counts master-ordered executions per node within the
	// window.
	ExecutedPerNode []int
	// OrderedPerNodeInstance counts refs ordered per node per instance over
	// the whole run.
	OrderedPerNodeInstance [][]int
	// InstanceChanges lists all observed instance-change completions.
	InstanceChanges []ICRecord
	// NICCloses counts flood-triggered NIC closures.
	NICCloses int
	// ClientSeries is the per-request latency series (when tracked).
	ClientSeries []LatencyPoint
	// MonitorSamples are the per-node monitor readings (when sampled).
	MonitorSamples []MonitorSample
}

func (m *Metrics) result(cfg Config) *Result {
	window := m.end.Sub(m.start)
	r := &Result{
		Window:                 window,
		Completed:              m.completions,
		ExecutedPerNode:        m.executed,
		OrderedPerNodeInstance: m.orderedByInst,
		InstanceChanges:        m.icEvents,
		NICCloses:              m.nicCloses,
		ClientSeries:           m.clientSeries,
		MonitorSamples:         m.monitorSamples,
	}
	if window > 0 {
		r.Throughput = float64(m.completions) / window.Seconds()
	}
	if len(m.latencies) > 0 {
		r.AvgLatency = m.latencySum / time.Duration(len(m.latencies))
		sorted := append([]time.Duration(nil), m.latencies...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		r.P50Latency = sorted[nearestRank(0.50, len(sorted))]
		r.P99Latency = sorted[nearestRank(0.99, len(sorted))]
	}
	return r
}

// nearestRank returns the zero-based index of the p-th percentile under the
// nearest-rank definition: the smallest value such that at least p·n of the
// observations are <= it, i.e. index ceil(p·n)-1 of the sorted sample.
func nearestRank(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)
}

// ViewChanged reports whether any node completed an instance change.
func (r *Result) ViewChanged() bool { return len(r.InstanceChanges) > 0 }
