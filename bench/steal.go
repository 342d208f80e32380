package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// The reference host is a virtual machine, and now and then its hypervisor
// takes the vCPUs away for minutes at a time. /proc/stat had counted 24 917
// stolen ticks in 5.4 h of uptime, against 3 a minute under full load the
// rest of the time, and one four-minute stretch accounts for most of them:
// seven small-mem runs in a row whose raw throughput fell to 0.6, whose raw
// median latency tripled, and in which the host-speed calibration, whose two
// goroutines run in lockstep and so need both vCPUs at once, read 0.44, so
// that the scaled throughput came out 35 % high and the scaled CPU per
// request 37 % low. Nothing measured in such a stretch means anything, so
// the benchmark does not measure in it: a cycle during which more than
// stealLimit of the CPU time was stolen is thrown away (its requests still
// count as attempted, and as failed if they were) and repeated once the host
// is quiet again.
const (
	// stealLimit is the stolen share of a cycle's CPU time above which the
	// cycle is discarded. A quiet host shows 0.0003; the two cycles the gate
	// caught in 80 runs showed 0.07 and 0.08 and had lost 35 % and 20 % of
	// their raw throughput.
	stealLimit = 0.05
	// stealWaitPerRun caps what one run spends on discarded cycles and on
	// waiting for quiet, which keeps the longest run near 130 s.
	stealWaitPerRun = 100 * time.Second
	// stealWaitPerCheckout caps the same over all runs of a checkout, so a
	// host that is never quiet costs a bounded amount of time and is then
	// measured as it is. The running total is kept in the scratch directory.
	stealWaitPerCheckout = 240 * time.Second
)

// cpuTicks reads the aggregate line of /proc/stat: ticks stolen by the
// hypervisor and ticks in total, over all CPUs. ok is false where the file
// or the steal column does not exist; the gate is then off.
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	return parseCPUTicks(data)
}

func parseCPUTicks(stat []byte) (steal, total uint64, ok bool) {
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	fields := bytes.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealGate watches the stolen share of CPU time between mark and stolen,
// and holds the waiting budgets.
type stealGate struct {
	steal0, total0 uint64
	ok             bool
	spent          time.Duration // this run: discarded cycles and waits
	waited         time.Duration // this run: waits only
	ledger         string        // file holding the checkout's total, in ns
	ledgerSpent    time.Duration
}

func newStealGate(dataRoot string) *stealGate {
	g := &stealGate{ledger: filepath.Join(dataRoot, "steal-wait-ns")}
	if b, err := os.ReadFile(g.ledger); err == nil {
		n, _ := strconv.ParseInt(string(bytes.TrimSpace(b)), 10, 64)
		g.ledgerSpent = time.Duration(n)
	}
	g.mark()
	return g
}

func (g *stealGate) mark() { g.steal0, g.total0, g.ok = cpuTicks() }

// stolen is the stolen share of all CPU time since mark.
func (g *stealGate) stolen() float64 {
	s, t, ok := cpuTicks()
	if !ok || !g.ok || t <= g.total0 {
		return 0
	}
	return float64(s-g.steal0) / float64(t-g.total0)
}

// canWait reports whether either budget has anything left.
func (g *stealGate) canWait() bool {
	return g.spent < stealWaitPerRun && g.ledgerSpent < stealWaitPerCheckout
}

// charge books d against both budgets.
func (g *stealGate) charge(d time.Duration) {
	g.spent += d
	g.ledgerSpent += d
	os.WriteFile(g.ledger, []byte(strconv.FormatInt(int64(g.ledgerSpent), 10)), 0o644)
}

// waitForQuiet alternates two idle seconds with a loaded probe (three
// calibrations: an idle vCPU has nothing to steal, so only load shows
// whether the hypervisor is still taking it) until a probe sees less than
// stealLimit stolen, or the budgets run out.
func (g *stealGate) waitForQuiet(name string) {
	t0 := time.Now()
	for g.canWait() {
		t1 := time.Now()
		time.Sleep(2 * time.Second)
		g.mark()
		for i := 0; i < 3; i++ {
			calibrate()
		}
		stolen := g.stolen()
		g.charge(time.Since(t1))
		if stolen <= stealLimit {
			break
		}
	}
	g.waited += time.Since(t0)
	fmt.Printf("# %s: waited %.0f s for the hypervisor to give the CPUs back (%.0f s of this run's %.0f spent, %.0f s of the checkout's %.0f)\n",
		name, time.Since(t0).Seconds(), g.spent.Seconds(), stealWaitPerRun.Seconds(), g.ledgerSpent.Seconds(), stealWaitPerCheckout.Seconds())
}
