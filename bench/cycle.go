package main

import (
	"fmt"
	"time"
)

// A run's measured time is spent in cycles of one open-loop rate segment and
// one closed-loop sat segment, each bracketed by host-speed calibrations.
// Every end-to-end number is a median over the cycles, so a host hiccup or a
// GC pause in one cycle does not move the result.
const (
	rateSegment  = 1 * time.Second
	satSegment   = 2 * time.Second
	cycleSeconds = int((rateSegment + satSegment) / time.Second)
)

// A silent-primary workload gets its fault before the measured cycles, in a
// fault stage of open-loop load: the master primary starts withholding its
// PRE-PREPAREs about faultAfter into it (phase-locked to the monitoring
// period, see ratePhase) and the load keeps coming for the rest of
// faultStage, because the monitors only vote the primary out while new
// requests keep arriving (the local cluster's MinRequests, 32, ordered by
// the backup instance per 250 ms period; a stalled closed loop never gets
// there). That is also why this stage is slow and its window wide: once
// every client's window is full no new request arrives and a vote that has
// not happened yet never will, so faultStageRate and faultWindow give the
// vote 2*128/300 = 0.85 s, three monitoring periods, at 75 requests per
// period; and the window stays under the 256 replies per client that the
// runtime's egress queues and the nodes' reply caches hold, beyond which
// replies are dropped and can never be re-sent (README.md, "Behaviours").
// The cycles then measure the cluster after the instance change.
const (
	faultStage     = 4 * time.Second
	faultAfter     = 1 * time.Second
	faultStageRate = 300
	faultWindow    = 128
)

// cycleResult is one cycle's two segments and the host speed around each.
type cycleResult struct {
	rate      rateResult
	sat       satResult
	rateSpeed hostSpeed
	satSpeed  hostSpeed
}

// cycle runs one rate segment and one sat segment. before is the
// calibration taken just before the cycle; the one taken after it is
// returned for the next cycle.
func (c *liveCluster) cycle(ops [][]byte, before hostSpeed) (cycleResult, hostSpeed, error) {
	var cy cycleResult
	cy.rate = c.ratePhase(ops, c.w.rate, satWindow, rateSegment, 0)
	if cy.rate.err != nil {
		return cy, before, cy.rate.err
	}
	mid := calibrate()
	cy.sat = c.satPhase(ops, satSegment)
	if cy.sat.err != nil {
		return cy, before, cy.sat.err
	}
	after := calibrate()
	cy.rateSpeed, cy.satSpeed = between(before, mid), between(mid, after)
	return cy, after, nil
}

// measure runs the workload's fault stage and cycles on a warmed-up cluster
// and applies the correctness gate. It returns the accumulated stats and
// the wall time of the cycles.
func (c *liveCluster) measure(ops [][]byte, cycles int) (*liveStats, time.Duration, error) {
	stats := newLiveStats(c.w, cycles)
	if err := c.injectFault(ops, stats); err != nil {
		return nil, 0, err
	}
	gate := newStealGate(c.dataRoot)
	start := time.Now()
	speed := calibrate()
	for k := 0; k < cycles; {
		gate.mark()
		t0 := time.Now()
		cy, after, err := c.cycle(ops, speed)
		if err != nil {
			return nil, 0, err
		}
		if stolen := gate.stolen(); stolen > stealLimit && gate.canWait() {
			// The hypervisor had the CPUs for part of this cycle
			// (steal.go): count its requests, keep its timings out.
			gate.charge(time.Since(t0))
			stats.addDiscarded(cy, stolen)
			gate.waitForQuiet(c.w.name)
			speed = calibrate()
			continue
		}
		stats.add(k, cy)
		speed = after
		k++
	}
	wall := time.Since(start) - gate.waited
	if err := c.checkAfterRun(); err != nil {
		return nil, 0, err
	}
	return stats, wall, nil
}

// injectFault runs the fault stage on a silent-primary workload and is a
// no-op on the others.
func (c *liveCluster) injectFault(ops [][]byte, stats *liveStats) error {
	if !c.w.silentPrimary {
		return nil
	}
	r := c.ratePhase(ops, faultStageRate, faultWindow, faultStage, faultAfter)
	stats.addFaultStage(r)
	return r.err
}

// liveStats accumulates cycles into the run's metrics. Time-based values
// are scaled to the reference host speed as they are added.
type liveStats struct {
	w                 workload
	attempted, failed int
	completed         int
	latency           *samples // rate-phase latency from due time, scaled, ns
	lateness          *samples // generator lateness, raw, ns
	thr, cpuPerReq    []float64
	allocs, bytes     []float64
	satCores          []float64
	speedWall         []float64 // host speed around each sat segment
	speedCPU          []float64
	gcPause           time.Duration
	outage            time.Duration // longest gap between completions after the fault
}

func newLiveStats(w workload, cycles int) *liveStats {
	n := cycles * int(float64(w.rate)*rateSegment.Seconds())
	return &liveStats{w: w, latency: newSamples(n), lateness: newSamples(n)}
}

// addFaultStage accounts the fault stage: its requests count as attempted
// and failed, its timings are kept out of the medians.
func (s *liveStats) addFaultStage(r rateResult) {
	s.attempted += r.attempted
	s.completed += r.completed
	s.failed += r.attempted - r.completed
	s.outage = r.outage
	fmt.Printf("# %s fault stage: master primary muted %v into %v of open-loop load at %d/s: %d/%d done, longest gap between completions %.1f ms\n",
		s.w.name, faultAfter, faultStage, faultStageRate, r.completed, r.attempted, float64(r.outage.Microseconds())/1e3)
}

// addDiscarded accounts a cycle the steal gate threw away: its requests
// count as attempted, completed and failed, its timings are dropped.
func (s *liveStats) addDiscarded(cy cycleResult, stolen float64) {
	rate, sat := cy.rate, cy.sat
	s.attempted += rate.attempted + sat.attempted
	s.completed += rate.completed + sat.completed
	s.failed += rate.attempted - rate.completed + sat.attempted - sat.completed
	fmt.Printf("# %s: cycle discarded, %.0f %% of its CPU time was stolen by the hypervisor (rate %d/%d done, sat %d/%d done, raw %.0f req/s)\n",
		s.w.name, 100*stolen, rate.completed, rate.attempted, sat.completed, sat.attempted, float64(sat.inTime)/satSegment.Seconds())
}

func (s *liveStats) add(k int, cy cycleResult) {
	rate, sat := cy.rate, cy.sat
	for _, ns := range rate.acct.latency.v {
		s.latency.record(int64(float64(ns) * cy.rateSpeed.wall))
	}
	for _, ns := range rate.acct.lateness.v {
		s.lateness.record(ns)
	}
	s.attempted += rate.attempted + sat.attempted
	s.completed += rate.completed + sat.completed
	s.failed += rate.attempted - rate.completed + sat.attempted - sat.completed
	rawThr := float64(sat.inTime) / satSegment.Seconds()
	rawCPU := float64(rate.cpu.Microseconds()) / float64(max(rate.completed, 1))
	s.thr = append(s.thr, rawThr/cy.satSpeed.wall)
	s.cpuPerReq = append(s.cpuPerReq, rawCPU*cy.rateSpeed.cpu)
	s.allocs = append(s.allocs, float64(sat.mallocs)/float64(max(sat.completed, 1)))
	s.bytes = append(s.bytes, float64(sat.bytes)/float64(max(sat.completed, 1)))
	s.satCores = append(s.satCores, sat.cpu.Seconds()/sat.wall.Seconds())
	s.speedWall = append(s.speedWall, cy.satSpeed.wall)
	s.speedCPU = append(s.speedCPU, cy.satSpeed.cpu)
	s.gcPause += sat.gcPause
	// The raw per-cycle numbers, for a reader checking what the medians and
	// the host-speed scaling did.
	fmt.Printf("# %s cycle %d: host speed wall %.3f/%.3f cpu %.3f/%.3f | rate: %d/%d done, raw p50 %.3f ms, raw cpu %.1f us/req, lateness p99 %.3f ms | sat: %d/%d done, raw %.0f req/s, %.2f cores, %.1f allocs/req\n",
		s.w.name, k, cy.rateSpeed.wall, cy.satSpeed.wall, cy.rateSpeed.cpu, cy.satSpeed.cpu,
		rate.completed, rate.attempted, float64(percentile(rate.acct.latency.sorted(), 50))/1e6, rawCPU,
		float64(percentile(rate.acct.lateness.sorted(), 99))/1e6,
		sat.completed, sat.attempted, rawThr, sat.cpu.Seconds()/sat.wall.Seconds(), s.allocs[len(s.allocs)-1])
}

// endToEnd is the gated metric set (setup_s is added by the caller).
func (s *liveStats) endToEnd() map[string]metric {
	return map[string]metric{
		"throughput_rps":      {medianFloat(s.thr), "1/s"},
		"latency_p50_ms":      {float64(percentile(s.latency.sorted(), 50)) / 1e6, "ms"},
		"cpu_us_per_req":      {medianFloat(s.cpuPerReq), "us"},
		"allocs_per_req":      {medianFloat(s.allocs), "count"},
		"alloc_bytes_per_req": {medianFloat(s.bytes), "B"},
	}
}
