// Command bench is the live wall-clock benchmark of the RBFT runtime
// cluster: it boots a real runtime.LocalCluster in this process, drives it
// through ClientRuntime from two client endpoints, checks every reply, and
// prints each metric by name and unit (README.md has the full contract).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many times a run boots and warms a cluster; setup_s is
// the median, and the last cluster is the one measured.
const setupRepeats = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: small-mem, large-mem, kv-tcp-wal or primary-silent")
		seed    = flag.Int64("seed", 1, "seed the operation stream is generated from")
		seconds = flag.Int("seconds", 24, "measured seconds: one cycle of a 1 s rate segment and a 2 s sat segment per 3 s")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics from the traced run instead of the end-to-end metrics")
		all     = flag.Bool("all", false, "run every workload once (end-to-end, or traced with -trace 1)")
		aa      = flag.Int("aa", 0, "run every workload N times as set A and N times as set B and compare medians against the bounds")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *all, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, trace, all bool, aa int) error {
	if seconds < cycleSeconds {
		return fmt.Errorf("-seconds %d: need at least %d", seconds, cycleSeconds)
	}
	dataRoot, err := scratchDir()
	if err != nil {
		return err
	}
	fmt.Println(hostNote(dataRoot))
	one := func(w workload, seed int64) (result, error) {
		if trace {
			return runTraced(w, seed, seconds, dataRoot)
		}
		return runEndToEnd(w, seed, seconds, dataRoot)
	}
	switch {
	case aa > 0:
		return runAA(aa, seed, seconds, dataRoot)
	case all:
		for _, w := range workloads {
			res, err := one(w, seed)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printResult(w.name, res)
		}
		return nil
	default:
		w, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		res, err := one(w, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(w.name, res)
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
}

// scratchDir is where WAL directories and the span dump go: .bench_build
// under the directory that holds BENCHMARK.json (the checkout root), so the
// benchmark never writes outside its checkout.
func scratchDir() (string, error) {
	root, err := checkoutRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, ".bench_build", "data")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// checkoutRoot finds the directory holding BENCHMARK.json: the working
// directory when run through run.sh, its parent under `go test`.
func checkoutRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the checkout root")
}

// hostNote describes the host every result was taken on.
func hostNote(dataRoot string) string {
	return fmt.Sprintf("# host: nproc=%d GOMAXPROCS=%d %s %s/%s data=%s (%s)",
		goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(),
		goruntime.GOOS, goruntime.GOARCH, dataRoot, fsType(dataRoot))
}

func printResult(workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s: attempted=%d failed=%d correct=%v\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-16s %-34s %14.4f %s\n", workload, n, m.Value, m.Unit)
	}
}

// setUp boots and warms a cluster setupRepeats times and returns the last
// one with the median set-up time. Each repetition regenerates the
// operation pool from the seed, so work moved from the run into set-up (or
// into op generation) shows in setup_s.
func setUp(w workload, seed int64, dataRoot string) (*liveCluster, [][]byte, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		ops := genOps(w, seed)
		c, err := bootCluster(w, dataRoot, nil, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		if err := c.warmUp(ops, warmupPerClient); err != nil {
			c.stop()
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			return c, ops, medianFloat(times), nil
		}
		c.stop()
	}
}

// runEndToEnd is the untraced run: set-up, measured cycles, checks.
func runEndToEnd(w workload, seed int64, seconds int, dataRoot string) (result, error) {
	c, ops, setupS, err := setUp(w, seed, dataRoot)
	if err != nil {
		return result{}, err
	}
	defer c.stop()
	stats, _, err := c.measure(ops, seconds/cycleSeconds)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true, Attempted: stats.attempted, Failed: stats.failed, Metrics: stats.endToEnd()}
	res.Metrics["setup_s"] = metric{setupS, "s"}
	return res, nil
}

// checkAfterRun is the correctness gate on cluster state: the expected
// number of instance changes and, for KV, agreeing replicas. A fault-free
// run must see no instance change. A silent-primary run must see the one
// the fault causes; after it the cluster is four working nodes, as likely to
// vote again as a fault-free one (0 in ~300 runs), and a fourth change would
// bring the faulty primary back. Up to maxInstanceChanges pass, and the
// traced run reports the count.
func (c *liveCluster) checkAfterRun() error {
	lo, hi := uint64(0), uint64(0)
	if c.w.silentPrimary {
		lo, hi = 1, maxInstanceChanges
	}
	if err := c.checkInstanceChanges(lo, hi); err != nil {
		return err
	}
	return c.checkReplicasAgree()
}

// maxInstanceChanges is where a silent-primary run stops being "recovered,
// with the odd spurious vote" and becomes a cluster that keeps rotating.
const maxInstanceChanges = 3
