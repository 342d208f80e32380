// Command rbft-trace inspects JSONL protocol traces produced by the
// simulator (sim.Config.Trace) or by a node's flight recorder.
//
//	rbft-trace summary trace.jsonl                  # event counts
//	rbft-trace timeline -node 0 trace.jsonl         # one node's event stream
//	rbft-trace explain trace.jsonl                  # instance-change forensics
//	rbft-trace critical-path -top 5 trace.jsonl     # per-stage latency budget
//	rbft-trace attribute -instance 0 trace.jsonl    # stage profile vs. healthy lanes
//
// Every command accepts multiple trace files (e.g. one flight-recorder dump
// per node); they are merged into one causally-ordered stream by timestamp
// before analysis, so cross-node reconstructions see the whole cluster.
//
// "explain" reconstructs the monitor's decision behind every instance
// change: which Δ/Λ/Ω test fired, the measured value, the node's Δ-ratio
// history leading up to the change, and the voters observed for the round.
//
// "critical-path" joins each request's lifecycle spans across nodes,
// follows the replica whose reply completed the client's f+1 quorum, and
// decomposes its end-to-end latency into per-stage segments that sum to the
// total exactly; it prints per-stage percentiles and the top-k slowest
// requests with their dominant stage.
//
// "attribute" compares one protocol instance's stage profile (propose,
// prepare-quorum, commit-quorum, order) against the healthy lanes' median,
// explaining a Δ/Λ/Ω verdict by naming the stage that carries the excess.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"rbft/internal/obs"
	"rbft/internal/types"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rbft-trace: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "summary":
		err = runSummary(args)
	case "timeline":
		err = runTimeline(args)
	case "explain":
		err = runExplain(args)
	case "critical-path":
		err = runCriticalPath(args)
	case "attribute":
		err = runAttribute(args)
	case "-h", "-help", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rbft-trace summary       <trace.jsonl>...
  rbft-trace timeline      [-node N] [-instance I] <trace.jsonl>...
  rbft-trace explain       <trace.jsonl>...
  rbft-trace critical-path [-top K] <trace.jsonl>...
  rbft-trace attribute     [-instance I] <trace.jsonl>...

Multiple trace files (e.g. per-node flight-recorder dumps) are merged into
one time-ordered stream. Pass "-" to read a trace from stdin.`)
}

// load reads and merges the traces named by the positional arguments of fs.
func load(fs *flag.FlagSet) ([]obs.Event, error) {
	if fs.NArg() < 1 {
		return nil, fmt.Errorf("expected at least one trace file")
	}
	traces := make([][]obs.Event, 0, fs.NArg())
	for _, path := range fs.Args() {
		events, err := readOne(path)
		if err != nil {
			return nil, err
		}
		traces = append(traces, events)
	}
	if len(traces) == 1 {
		return traces[0], nil
	}
	return obs.MergeTraces(traces...), nil
}

func readOne(path string) ([]obs.Event, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return obs.ReadTrace(r)
}

func runSummary(args []string) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	events, err := load(fs)
	if err != nil {
		return err
	}
	s := obs.Summarize(events)
	fmt.Printf("%d events\n", s.Total)
	for _, tc := range s.ByType {
		fmt.Printf("  %-24s %d\n", tc.Type, tc.Count)
	}
	printFrontDoor(events)
	if len(events) > 0 {
		first, last := events[0].At, events[len(events)-1].At
		fmt.Printf("span: %s .. %s (%s)\n",
			stamp(first), stamp(last), last.Sub(first))
	}
	return nil
}

// printFrontDoor summarises client-table evictions per node. Printed only
// when the trace carries eviction events, so traces from unbounded tables
// (every legacy trace) keep their summary output unchanged.
func printFrontDoor(events []obs.Event) {
	evictions := make(map[types.NodeID]int)
	lastSize := make(map[types.NodeID]int)
	var nodes []types.NodeID
	for _, ev := range events {
		if ev.Type != obs.EvClientEvicted {
			continue
		}
		if _, seen := evictions[ev.Node]; !seen {
			nodes = append(nodes, ev.Node)
		}
		evictions[ev.Node]++
		lastSize[ev.Node] = ev.Count
	}
	if len(nodes) == 0 {
		return
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	total := 0
	for _, n := range nodes {
		total += evictions[n]
	}
	fmt.Printf("front door: %d client evictions (bounded client table)\n", total)
	for _, n := range nodes {
		fmt.Printf("  node %-3d evictions=%-8d last-table-size=%d\n",
			n, evictions[n], lastSize[n])
	}
}

func runTimeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	node := fs.Int("node", -1, "restrict to one node id (-1 = all)")
	inst := fs.Int("instance", -1, "restrict to one protocol instance's ordering events (-1 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	events, err := load(fs)
	if err != nil {
		return err
	}
	for _, ev := range obs.Timeline(events, types.NodeID(*node), types.InstanceID(*inst)) {
		fmt.Println(formatEvent(ev))
	}
	return nil
}

func runExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	tail := fs.Int("tail", 5, "ratio-history points to show per change")
	if err := fs.Parse(args); err != nil {
		return err
	}
	events, err := load(fs)
	if err != nil {
		return err
	}
	expl := obs.ExplainInstanceChanges(events)
	if len(expl) == 0 {
		fmt.Println("no instance changes in trace")
		return nil
	}
	for i, e := range expl {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("instance change #%d at %s: node %d -> view %d (cpi %d)\n",
			i+1, stamp(e.At), e.Node, e.NewView, e.CPI)
		fmt.Printf("  reason: %s\n", e.Reason)
		switch e.Reason {
		case "throughput-delta":
			fmt.Printf("  measured ratio: %.4f (master/best-backup throughput)\n", e.Ratio)
		case "latency-lambda":
			fmt.Printf("  offending latency: %.4fs (client %d)\n", e.Value, e.Client)
		case "fairness-omega":
			fmt.Printf("  offending latency gap: %.4fs (client %d)\n", e.Value, e.Client)
		}
		if len(e.Voters) > 0 {
			fmt.Printf("  voters: %v\n", e.Voters)
		}
		if n := len(e.RatioSeries); n > 0 {
			start := n - *tail
			if start < 0 {
				start = 0
			}
			fmt.Printf("  ratio history (last %d of %d):\n", n-start, n)
			for _, p := range e.RatioSeries[start:] {
				mark := " "
				if p.Suspicious {
					mark = "!"
				}
				fmt.Printf("   %s %s ratio=%.4f throughput=%v\n", mark, stamp(p.At), p.Ratio, p.Throughput)
			}
		}
	}
	return nil
}

func runCriticalPath(args []string) error {
	fs := flag.NewFlagSet("critical-path", flag.ExitOnError)
	top := fs.Int("top", 5, "slowest requests to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	events, err := load(fs)
	if err != nil {
		return err
	}
	rep := obs.CriticalPaths(events, *top)
	if rep.Requests == 0 {
		fmt.Println("no completed requests in trace (need request-lifecycle spans; run with tracing on)")
		return nil
	}
	fmt.Printf("%d completed requests across %d nodes (f=%d, reply quorum %d)\n",
		rep.Requests, rep.Nodes, rep.F, rep.F+1)
	fmt.Printf("end-to-end latency: p50=%s p95=%s p99=%s\n",
		rep.Latency.P50, rep.Latency.P95, rep.Latency.P99)
	fmt.Println("per-stage latency budget (critical-path segments):")
	for _, st := range rep.Stages {
		fmt.Printf("  %-16s n=%-6d p50=%-12s p95=%-12s p99=%s\n",
			st.Stage, st.Count, st.P50, st.P95, st.P99)
	}
	if len(rep.Slowest) > 0 {
		fmt.Printf("top %d slowest requests:\n", len(rep.Slowest))
		for _, p := range rep.Slowest {
			fmt.Printf("  client=%d req=%d latency=%s via node %d, dominant stage: %s\n",
				p.Client, p.Req, p.Latency, p.Node, p.Dominant)
			for _, seg := range p.Segments {
				fmt.Printf("    %-16s %s\n", seg.Stage, seg.Dur)
			}
		}
	}
	return nil
}

func runAttribute(args []string) error {
	fs := flag.NewFlagSet("attribute", flag.ExitOnError)
	inst := fs.Int("instance", -1, "suspect protocol instance (-1 = master)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	events, err := load(fs)
	if err != nil {
		return err
	}
	rep := obs.Attribute(events, types.InstanceID(*inst))
	fmt.Printf("suspect: instance %d\n", rep.Suspect)
	if len(rep.Instances) == 0 {
		fmt.Println("no per-instance spans in trace (run with tracing on)")
		return nil
	}
	fmt.Println("per-instance stage profiles (p50):")
	for _, ip := range rep.Instances {
		mark := " "
		if ip.Instance == rep.Suspect {
			mark = "*"
		}
		fmt.Printf(" %s instance %d:", mark, ip.Instance)
		for _, st := range ip.Stages {
			fmt.Printf(" %s=%s", st.Stage, st.P50)
		}
		fmt.Println()
	}
	fmt.Println("suspect vs. healthy-lane median:")
	for _, d := range rep.Diffs {
		fmt.Printf("  %-16s suspect=%-12s healthy=%-12s excess=%s\n",
			d.Stage, d.Suspect, d.Healthy, d.Excess)
	}
	if len(rep.Segments) > 0 {
		fmt.Println("critical-path segments (p50):")
		for _, st := range rep.Segments {
			if st.Stage == obs.UnattributedStage {
				continue
			}
			fmt.Printf("  %-16s %s\n", st.Stage, st.P50)
		}
	}
	if rep.Dominant != "" {
		fmt.Printf("dominant stage: %s\n", rep.Dominant)
	} else {
		fmt.Println("dominant stage: none (no stage carries measurable excess)")
	}
	if len(rep.Changes) > 0 {
		fmt.Printf("instance changes in trace: %d (first: %s at %s)\n",
			len(rep.Changes), rep.Changes[0].Reason, stamp(rep.Changes[0].At))
	}
	return nil
}

func formatEvent(ev obs.Event) string {
	s := fmt.Sprintf("%s node=%d %s", stamp(ev.At), ev.Node, ev.Type)
	switch ev.Type {
	case obs.EvPrePrepare, obs.EvPrepare, obs.EvCommit, obs.EvOrdered:
		s += fmt.Sprintf(" inst=%d seq=%d view=%d", ev.Instance, ev.Seq, ev.View)
		if ev.Count > 0 {
			s += fmt.Sprintf(" batch=%d", ev.Count)
		}
	case obs.EvRequestReceived, obs.EvRequestDispatched, obs.EvExecuted:
		s += fmt.Sprintf(" client=%d req=%d", ev.Client, ev.Req)
	case obs.EvVerdict:
		s += fmt.Sprintf(" reason=%s value=%.4f", ev.Reason, ev.Value)
	case obs.EvInstanceChangeStart, obs.EvInstanceChangeComplete:
		s += fmt.Sprintf(" cpi=%d reason=%s", ev.CPI, ev.Reason)
	case obs.EvNICClose, obs.EvMsgDrop:
		s += fmt.Sprintf(" peer=%d", ev.Peer)
	case obs.EvClientEvicted:
		s += fmt.Sprintf(" client=%d table-size=%d", ev.Client, ev.Count)
	case obs.EvSpan:
		s += fmt.Sprintf(" stage=%s dur=%s", ev.Stage, ev.Dur)
		if ev.Stage.PerInstance() {
			s += fmt.Sprintf(" inst=%d seq=%d", ev.Instance, ev.Seq)
		} else {
			s += fmt.Sprintf(" client=%d req=%d", ev.Client, ev.Req)
		}
	}
	return s
}

// stamp renders a trace timestamp. Simulator traces use virtual time near
// the epoch, where an offset reads better than a calendar date.
func stamp(t time.Time) string {
	if t.Year() < 2000 {
		return t.Sub(time.Unix(0, 0)).String()
	}
	return t.Format("15:04:05.000")
}
