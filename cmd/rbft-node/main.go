// Command rbft-node runs one RBFT node over TCP (or UDP with -udp).
//
// A 4-node cluster on one machine:
//
//	rbft-node -id 0 -f 1 -listen 127.0.0.1:7000 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	rbft-node -id 1 -f 1 -listen 127.0.0.1:7001 -peers ... &
//	rbft-node -id 2 -f 1 -listen 127.0.0.1:7002 -peers ... &
//	rbft-node -id 3 -f 1 -listen 127.0.0.1:7003 -peers ... &
//
// Then drive it with rbft-client. The replicated application is the
// key-value store (PUT/GET/DEL). All nodes must share -secret; in a real
// deployment the key material would come from a PKI.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rbft/internal/app"
	"rbft/internal/core"
	"rbft/internal/crypto"
	"rbft/internal/monitor"
	"rbft/internal/obs"
	"rbft/internal/runtime"
	"rbft/internal/transport"
	"rbft/internal/transport/tcpnet"
	"rbft/internal/transport/udpnet"
	"rbft/internal/types"
	"rbft/internal/wal"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		id          = flag.Int("id", 0, "this node's id (0..N-1)")
		f           = flag.Int("f", 1, "tolerated faults (cluster has 3f+1 nodes)")
		listen      = flag.String("listen", "127.0.0.1:7000", "listen address")
		peers       = flag.String("peers", "", "comma-separated node addresses, index = node id (including this node)")
		clients     = flag.String("clients", "", "comma-separated client addresses as id=addr pairs (optional; clients can also be added while running via repeated flags)")
		secret      = flag.String("secret", "rbft-demo-secret", "cluster key-derivation secret (all nodes and clients must agree)")
		udp         = flag.Bool("udp", false, "use UDP instead of TCP")
		maxClients  = flag.Int("max-clients", 64, "client id space")
		delta       = flag.Float64("delta", 0.9, "monitoring Delta threshold")
		period      = flag.Duration("period", 250*time.Millisecond, "monitoring period")
		obsAddr     = flag.String("obs-addr", "", "observability HTTP listen address serving /metrics and /debug/events (empty = disabled)")
		pprofOn     = flag.Bool("pprof", false, "also serve net/http/pprof under /debug/pprof/ on the observability address (requires -obs-addr)")
		recorder    = flag.Int("recorder", obs.DefaultRecorderSize, "flight-recorder capacity in events (0 = disabled)")
		dataDir     = flag.String("data-dir", "", "durable state directory; when set, protocol state is written to a WAL under it before any message is sent, and a restart recovers from it (empty = in-memory only)")
		ordering    = flag.String("ordering", "master-only", "ordering mode: master-only (master instance orders everything) or multi-primary (each instance orders a disjoint client partition; all nodes must agree)")
		execWorkers = flag.Int("exec-workers", 0, "parallel execution workers: 0 or 1 applies requests serially; >= 2 applies non-conflicting requests concurrently in waves (the KV app declares conflicts per key)")
	)
	flag.Parse()

	cluster := types.NewConfig(*f)
	if *id < 0 || *id >= cluster.N {
		return fmt.Errorf("id %d out of range for N=%d", *id, cluster.N)
	}
	peerList := strings.Split(*peers, ",")
	if len(peerList) != cluster.N {
		return fmt.Errorf("need %d peer addresses, got %d", cluster.N, len(peerList))
	}

	peerMap := make(map[string]string, cluster.N)
	for i, addr := range peerList {
		if i != *id {
			peerMap[runtime.NodeName(types.NodeID(i))] = strings.TrimSpace(addr)
		}
	}
	if err := addClientPeers(peerMap, *clients); err != nil {
		return err
	}

	// Observability: a metrics registry plus an in-memory flight recorder,
	// both exposed over HTTP when -obs-addr is set. The registry also feeds
	// the transport drop/close counters.
	reg := obs.NewRegistry()
	var fr *obs.FlightRecorder
	sinks := []obs.Tracer{obs.NewMetricsTracer(reg)}
	if *recorder > 0 {
		fr = obs.NewFlightRecorder(*recorder)
		sinks = append(sinks, fr)
	}
	tracer := obs.Multi(sinks...)

	var tr transport.Transport
	var err error
	name := runtime.NodeName(types.NodeID(*id))
	if *udp {
		ep, uerr := udpnet.Listen(name, *listen, peerMap)
		if uerr == nil {
			ep.SetMetrics(transport.NewMetrics(reg, "udp"))
		}
		tr, err = ep, uerr
	} else {
		ep, terr := tcpnet.Listen(name, *listen, peerMap)
		if terr == nil {
			ep.SetMetrics(transport.NewMetrics(reg, "tcp"))
		}
		tr, err = ep, terr
	}
	if err != nil {
		return err
	}

	mode, err := types.ParseOrderingMode(*ordering)
	if err != nil {
		return err
	}

	ks := crypto.NewKeyStore([]byte(*secret), cluster.N, *maxClients)
	cfg := core.Config{
		Cluster: cluster,
		Node:    types.NodeID(*id),
		App:     runtime.InstrumentApp(app.NewKV(), tracer, types.NodeID(*id)),
		Monitoring: monitor.Config{
			Period: *period,
			Delta:  *delta,
		},
		BatchTimeout: 2 * time.Millisecond,
		OrderingMode: mode,
		ExecWorkers:  *execWorkers,
		Durable:      *dataDir != "",
	}
	node := core.New(cfg, ks.NodeRing(types.NodeID(*id)))
	node.SetTracer(tracer)
	node.SetRegistry(reg)

	// Durability: open (or recover) the WAL before the node says a word on
	// the network. Everything the node has ever promised is replayed into it
	// here, so a SIGKILL + restart cannot make it equivocate.
	var w *wal.Log
	if *dataDir != "" {
		w, err = runtime.OpenNodeWAL(node, wal.Options{Dir: filepath.Join(*dataDir, "wal")}, reg)
		if err != nil {
			return err
		}
		if n := w.Replayed(); n > 0 {
			log.Printf("recovered from %s: replayed %d WAL records", *dataDir, n)
		}
	}

	nr := runtime.StartNodeOpts(node, tr, cluster, runtime.NodeOptions{
		WAL:     w,
		Metrics: reg,
		Tracer:  tracer,
	})
	log.Printf("rbft-node %d/%d listening on %s (f=%d, %d instances, transport=%s)",
		*id, cluster.N, *listen, *f, cluster.Instances(), transportName(*udp))

	if *obsAddr != "" {
		handler := obs.HTTPHandler(reg, fr)
		endpoints := "/metrics, /debug/events"
		if *pprofOn {
			// pprof is opt-in: profiling endpoints expose enough internal
			// state (heap contents, goroutine stacks) that they should never
			// be on by default, even on a loopback observability port.
			mux := http.NewServeMux()
			mux.Handle("/", handler)
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			handler = mux
			endpoints += ", /debug/pprof/"
		}
		srv := &http.Server{Addr: *obsAddr, Handler: handler}
		go func() {
			log.Printf("observability on http://%s (%s)", *obsAddr, endpoints)
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("observability server: %v", err)
			}
		}()
		defer srv.Close()
	}

	// SIGQUIT dumps the flight recorder without stopping the node — a live
	// snapshot for forensics on a degraded but still-serving replica.
	// SIGINT/SIGTERM shut down gracefully as before.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGQUIT)
	var s os.Signal
	for s = range sig {
		if s != syscall.SIGQUIT {
			break
		}
		if fr == nil {
			log.Printf("SIGQUIT: flight recorder disabled (-recorder 0), nothing to dump")
			continue
		}
		if err := dumpRecorder(fr, recorderPath(*dataDir, *id)); err != nil {
			log.Printf("SIGQUIT: flight recorder dump: %v", err)
		}
	}
	log.Printf("%s: shutting down", s)

	// Graceful shutdown: stop the pipeline first (no new outputs), then make
	// everything already appended durable and release the segment files, and
	// finally preserve the flight recorder's tail for post-mortem reading.
	nr.Stop()
	if w != nil {
		if err := w.Close(); err != nil {
			log.Printf("wal close: %v", err)
		} else {
			log.Printf("wal flushed and closed")
		}
	}
	if fr != nil && *dataDir != "" {
		if err := dumpRecorder(fr, filepath.Join(*dataDir, "flight-recorder.jsonl")); err != nil {
			log.Printf("flight recorder dump: %v", err)
		}
	}
	return nil
}

// addClientPeers parses the -clients flag ("id=addr,id=addr") into peers,
// keyed by the endpoint name REPLYs to that client are addressed to — the
// canonical name of the parsed id, whatever the flag's spelling of it.
func addClientPeers(peers map[string]string, spec string) error {
	for _, pair := range strings.Split(spec, ",") {
		if strings.TrimSpace(pair) == "" {
			continue
		}
		cid, addr, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("malformed client pair %q (want id=addr)", pair)
		}
		n, err := strconv.Atoi(strings.TrimSpace(cid))
		if err != nil || n < 0 {
			return fmt.Errorf("malformed client id %q (want a non-negative integer)", cid)
		}
		peers[runtime.ClientName(types.ClientID(n))] = strings.TrimSpace(addr)
	}
	return nil
}

// recorderPath places flight-recorder dumps in the data directory when one
// exists, else in the working directory named by node id (so an in-memory
// cluster on one machine doesn't clobber its own dumps).
func recorderPath(dataDir string, id int) string {
	if dataDir != "" {
		return filepath.Join(dataDir, "flight-recorder.jsonl")
	}
	return fmt.Sprintf("rbft-node-%d-flight-recorder.jsonl", id)
}

// dumpRecorder writes the flight recorder's buffered events as JSONL so a
// crash investigation can read the node's last moments after the process is
// gone (the /debug/events endpoint dies with it).
func dumpRecorder(fr *obs.FlightRecorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	jw := obs.NewJSONLWriter(f)
	for _, ev := range fr.Events() {
		jw.Trace(ev)
	}
	if err := jw.Err(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Printf("flight recorder dumped to %s", path)
	return nil
}

func transportName(udp bool) string {
	if udp {
		return "udp"
	}
	return "tcp"
}
