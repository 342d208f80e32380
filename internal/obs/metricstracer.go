package obs

import (
	"strconv"
	"sync"

	"rbft/internal/types"
)

// MetricsTracer derives registry metrics from the event stream, so a
// deployment gets per-instance ordered counts, batch-size distribution,
// instance-change counts by reason, NIC closures and message drops from the
// same instrumentation points that feed the trace sinks. Executions it leaves
// to the node, which counts them per lane (rbft_executed_total{lane}) on the
// same registry: counting them here too would serve every execution twice.
type MetricsTracer struct {
	reg *Registry

	nicCloses *Counter
	msgDrops  *Counter
	icStarts  *Counter
	batchSize *Histogram

	mu        sync.Mutex
	ordered   map[types.InstanceID]*Counter // guarded by mu
	icReasons map[string]*Counter           // guarded by mu
	stages    map[stageKey]*Histogram       // guarded by mu
}

// stageKey caches one rbft_stage_seconds series. Instance is -1 for stages
// that are not scoped to an instance lane.
type stageKey struct {
	stage Stage
	inst  types.InstanceID
}

// NewMetricsTracer creates a tracer deriving metrics into reg.
func NewMetricsTracer(reg *Registry) *MetricsTracer {
	return &MetricsTracer{
		reg:       reg,
		nicCloses: reg.Counter("rbft_nic_closures_total"),
		msgDrops:  reg.Counter("rbft_messages_dropped_total"),
		icStarts:  reg.Counter("rbft_instance_change_votes_total"),
		batchSize: reg.Histogram("rbft_batch_size", BatchSizeBuckets),
		ordered:   make(map[types.InstanceID]*Counter),
		icReasons: make(map[string]*Counter),
		stages:    make(map[stageKey]*Histogram),
	}
}

// Enabled implements Tracer.
func (mt *MetricsTracer) Enabled() bool { return true }

// Trace implements Tracer.
func (mt *MetricsTracer) Trace(ev Event) {
	switch ev.Type {
	case EvOrdered:
		mt.orderedCounter(ev.Instance).Add(uint64(ev.Count))
		mt.batchSize.Observe(float64(ev.Count))
	case EvInstanceChangeStart:
		mt.icStarts.Inc()
	case EvInstanceChangeComplete:
		mt.icReason(ev.Reason).Inc()
	case EvNICClose:
		mt.nicCloses.Inc()
	case EvMsgDrop:
		mt.msgDrops.Inc()
	case EvSpan:
		mt.stageHistogram(ev.Stage, ev.Instance).Observe(ev.Dur.Seconds())
	}
}

// stageHistogram resolves the rbft_stage_seconds series for a span. Stages
// scoped to an instance lane get an instance label
// (rbft_stage_seconds{instance="0",stage="prepare-quorum"}, labels in
// alphabetical order); request-scoped stages get the stage label only.
func (mt *MetricsTracer) stageHistogram(stage Stage, inst types.InstanceID) *Histogram {
	key := stageKey{stage: stage, inst: inst}
	if !stage.PerInstance() {
		key.inst = -1
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	h := mt.stages[key]
	if h == nil {
		name := "rbft_stage_seconds{"
		if key.inst >= 0 {
			name += `instance=` + strconv.Quote(strconv.Itoa(int(key.inst))) + `,`
		}
		name += `stage=` + strconv.Quote(stage.String()) + `}`
		h = mt.reg.Histogram(name, LatencyBuckets)
		mt.stages[key] = h
	}
	return h
}

// orderedCounter resolves rbft_ordered_total{instance="i"} once per
// instance, caching so the steady state is one map read per event.
func (mt *MetricsTracer) orderedCounter(inst types.InstanceID) *Counter {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	c := mt.ordered[inst]
	if c == nil {
		c = mt.reg.Counter(LabeledName("rbft_ordered_total", "instance", strconv.Itoa(int(inst))))
		mt.ordered[inst] = c
	}
	return c
}

func (mt *MetricsTracer) icReason(reason string) *Counter {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	c := mt.icReasons[reason]
	if c == nil {
		c = mt.reg.Counter(LabeledName("rbft_instance_changes_total", "reason", reason))
		mt.icReasons[reason] = c
	}
	return c
}
