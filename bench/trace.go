package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"rbft/internal/obs"
	"rbft/internal/types"
)

// The traced run (-trace 1) produces the per-layer metrics in three parts:
//
//   - two live clusters driven through identical cycles, first one untraced
//     and then one with ClusterOptions.Metrics and ClusterOptions.Tracer
//     attached: the traced cluster's registry gives the in-situ counts and
//     ratios, and the gap between the two (each scaled to the host speed
//     around it) is the tracing overhead;
//   - the stepped pass (stepped.go): timings and exact counts per call into
//     each layer;
//   - the direct loops (layers.go) for layers core.Node hides.
//
// End-to-end metrics are never taken from this run.

// tracedCycleSeconds is the wall cost of one traced cycle: both clusters
// run it.
const tracedCycleSeconds = 2 * cycleSeconds

func runTraced(w workload, seed int64, seconds int, dataRoot string) (result, error) {
	ops := genOps(w, seed)
	m := make(map[string]metric)

	// One cluster at a time, each through the same cycles: a cluster left
	// idle for seconds while another runs is a different experiment (one
	// such idle cluster voted an instance change with no fault injected).
	cycles := max(seconds/tracedCycleSeconds, 1)
	reg := obs.NewRegistry()
	plainStats, _, _, err := liveCycles(w, ops, cycles, dataRoot, nil, nil)
	if err != nil {
		return result{}, err
	}
	tracedStats, ics, tracedWall, err := liveCycles(w, ops, cycles, dataRoot, reg, obs.NewMetricsTracer(reg))
	if err != nil {
		return result{}, err
	}
	liveLayerMetrics(m, reg, plainStats, tracedStats, tracedWall, ics)

	batch := int(m["pbft.batch_size_mean"].Value + 0.5)
	if batch < 1 {
		batch = 1
	}
	stepCPU, err := steppedLayerMetrics(m, w, ops, dataRoot)
	if err != nil {
		return result{}, err
	}
	liveCPU := plainStats.endToEnd()["cpu_us_per_req"].Value
	m["obs.cpu_explained_frac"] = metric{stepCPU / liveCPU, "ratio"}

	if err := cryptoLoop(ops, m); err != nil {
		return result{}, err
	}
	if err := pbftLoop(batch, m); err != nil {
		return result{}, err
	}
	execLoop(w, ops, batch, m)
	if err := walLoop(ops, dataRoot, m); err != nil {
		return result{}, err
	}
	if err := transportLoop(w, int(m["message.bytes_per_req"].Value/m["message.msgs_per_req"].Value), m); err != nil {
		return result{}, err
	}
	return result{
		Correct:   true,
		Attempted: plainStats.attempted + tracedStats.attempted,
		Failed:    plainStats.failed + tracedStats.failed,
		Metrics:   m,
	}, nil
}

// liveCycles boots a cluster (traced when reg and tracer are set), warms it
// up, measures it and stops it. It returns the accumulated stats, the
// per-node instance-change counts and the wall time of the cycles.
func liveCycles(w workload, ops [][]byte, cycles int, dataRoot string, reg *obs.Registry, tracer obs.Tracer) (*liveStats, []uint64, time.Duration, error) {
	c, err := bootCluster(w, dataRoot, reg, tracer)
	if err != nil {
		return nil, nil, 0, err
	}
	defer c.stop()
	if err := c.warmUp(ops, warmupPerClient); err != nil {
		return nil, nil, 0, err
	}
	stats, wall, err := c.measure(ops, cycles)
	if err != nil {
		return nil, nil, 0, err
	}
	return stats, c.instanceChanges(), wall, nil
}

// counterSum adds up every counter of the registry snapshot whose name is
// name or name{...}.
func counterSum(snap []obs.Metric, name string) float64 {
	var sum float64
	for _, mt := range snap {
		if mt.Name == name || strings.HasPrefix(mt.Name, name+"{") {
			sum += mt.Value
		}
	}
	return sum
}

// liveLayerMetrics fills the per-layer metrics that come from the live
// clusters: the traced cluster's registry and the clients' own accounting.
func liveLayerMetrics(m map[string]metric, reg *obs.Registry, plain, traced *liveStats, wall time.Duration, ics []uint64) {
	snap := reg.Snapshot()
	// Registry counters cover everything the traced cluster ever did,
	// warm-up included, so they are divided by everything it completed.
	done := float64(traced.completed + nClients*warmupPerClient)

	lat := traced.latency.sorted()
	m["client.latency_p90_ms"] = metric{float64(percentile(lat, 90)) / 1e6, "ms"}
	m["client.latency_p99_ms"] = metric{float64(percentile(lat, 99)) / 1e6, "ms"}
	m["client.lateness_p99_ms"] = metric{float64(percentile(traced.lateness.sorted(), 99)) / 1e6, "ms"}

	batches := counterSum(snap, "rbft_transport_batches_sent_total")
	coalesced := counterSum(snap, "rbft_transport_frames_coalesced_total")
	m["transport.frames_per_batch"] = metric{coalesced / max(batches, 1), "count"}
	m["transport.bytes_out_per_req"] = metric{counterSum(snap, "rbft_transport_bytes_out_total") / done, "B"}
	m["transport.dropped"] = metric{counterSum(snap, "rbft_transport_dropped_total"), "count"}

	m["runtime.sat_cpu_cores"] = metric{medianFloat(plain.satCores), "cores"}
	m["runtime.egress_dropped"] = metric{counterSum(snap, "rbft_egress_dropped_total"), "count"}
	m["runtime.ingress_rejected"] = metric{counterSum(snap, "rbft_ingress_rejected_total"), "count"}
	m["runtime.peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	m["runtime.gc_pause_ms"] = metric{float64((plain.gcPause + traced.gcPause).Microseconds()) / 1e3, "ms"}

	cluster := types.NewConfig(1)
	for _, mt := range snap {
		if mt.Name == "rbft_batch_size" && mt.Count > 0 {
			m["pbft.batch_size_mean"] = metric{mt.Sum / float64(mt.Count), "count"}
			// Every node observes every instance's batches.
			perLane := float64(mt.Count) / float64(cluster.N*cluster.Instances())
			m["pbft.batches_per_s"] = metric{perLane / wall.Seconds(), "1/s"}
		}
	}

	m["core.instance_changes"] = metric{float64(slices.Max(ics)), "count"}
	m["monitor.ic_votes"] = metric{counterSum(snap, "rbft_instance_change_votes_total"), "count"}
	m["monitor.outage_ms"] = metric{float64(traced.outage.Microseconds()) / 1e3, "ms"}

	m["wal.fsyncs_per_req"] = metric{counterSum(snap, "rbft_wal_fsyncs_total") / done, "count"}

	m["host.speed_wall"] = metric{medianFloat(slices.Concat(plain.speedWall, traced.speedWall)), "ratio"}
	m["host.speed_cpu"] = metric{medianFloat(slices.Concat(plain.speedCPU, traced.speedCPU)), "ratio"}

	plainThr, tracedThr := medianFloat(plain.thr), medianFloat(traced.thr)
	m["obs.trace_overhead_frac"] = metric{1 - tracedThr/plainThr, "ratio"}
}

// steppedLayerMetrics runs the stepped pass and fills the metrics it owns.
// It returns the pass's CPU time per request, scaled to the reference host
// speed like the live cpu_us_per_req it is compared with.
func steppedLayerMetrics(m map[string]metric, w workload, ops [][]byte, dataRoot string) (float64, error) {
	s, err := newStepped(w, ops, dataRoot)
	if err != nil {
		return 0, err
	}
	defer s.close()
	before := calibrate()
	cpu0 := processCPU()
	if err := s.run(steppedRequests); err != nil {
		return 0, err
	}
	cpu := processCPU() - cpu0
	speed := between(before, calibrate())
	if d := s.spans.dropped.Load(); d > 0 {
		return 0, fmt.Errorf("stepped pass: span buffer overflowed by %d spans", d)
	}
	path := filepath.Join(dataRoot, "spans-"+w.name+".jsonl")
	if err := s.spans.writeJSONL(path); err != nil {
		return 0, fmt.Errorf("span dump: %w", err)
	}
	fmt.Printf("# %s: stepped pass: %d requests, %d spans written to %s\n", w.name, steppedRequests, len(s.spans.recorded()), path)

	t := s.spans.totals()
	n := float64(steppedRequests)
	perReq := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }

	m["client.new_request_us"] = metric{t.mean(spClientNewRequest), "us"}
	m["client.on_reply_us"] = metric{t.mean(spClientOnReply), "us"}
	clientT := t.total[spClientNewRequest] + t.total[spClientOnReply] + t.total[spMessageMarshal] + t.total[spMessageDecodeReply]
	var all time.Duration
	for name, d := range t.total {
		if name != spAppExecute { // nested inside core spans
			all += d
		}
	}
	m["client.cpu_share_frac"] = metric{float64(clientT) / float64(all), "ratio"}

	m["message.marshal_us_per_req"] = metric{perReq(t.total[spMessageMarshal]), "us"}
	m["message.encode_us_per_msg"] = metric{t.mean(spMessageEncode), "us"}
	m["message.preverify_client_us"] = metric{t.mean(spMessagePreverifyClient), "us"}
	m["message.preverify_node_us"] = metric{t.mean(spMessagePreverifyNode), "us"}
	m["message.sigcache_hit_frac"] = metric{s.sigCacheHitFrac(), "ratio"}
	m["message.msgs_per_req"] = metric{float64(s.frames) / n, "count"}
	m["message.bytes_per_req"] = metric{float64(s.frameBytes) / n, "B"}

	coreT := t.total[spCoreOnVerified] + t.total[spCoreTick]
	coreSelf := coreT - t.childCover[spCoreOnVerified] - t.childCover[spCoreTick]
	m["core.on_verified_us_per_req"] = metric{perReq(coreT), "us"}
	m["core.self_us_per_req"] = metric{perReq(coreSelf), "us"}
	m["core.apply_calls_per_req"] = metric{float64(s.applyCalls) / n, "count"}
	m["core.propagate_bytes_per_req"] = metric{float64(s.propagateBytes) / n, "B"}

	m["wal.records_per_req"] = metric{float64(s.records) / n, "count"}
	m["wal.bytes_per_req"] = metric{counterSum(s.walReg.Snapshot(), "rbft_wal_bytes_total") / n, "B"}

	m["app.execute_us_per_op"] = metric{t.mean(spAppExecute), "us"}
	return float64(cpu.Microseconds()) / n * speed.cpu, nil
}
