package runtime

import (
	"cmp"
	"fmt"
	"path/filepath"
	"time"

	"rbft/internal/app"
	"rbft/internal/client"
	"rbft/internal/core"
	"rbft/internal/crypto"
	"rbft/internal/monitor"
	"rbft/internal/obs"
	"rbft/internal/transport"
	"rbft/internal/transport/memnet"
	"rbft/internal/transport/tcpnet"
	"rbft/internal/transport/udpnet"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// TransportKind selects the wire for a local cluster.
type TransportKind int

// Supported transports.
const (
	// Mem wires the cluster through in-process channels.
	Mem TransportKind = iota + 1
	// TCP wires the cluster over loopback TCP (the deployment default).
	TCP
	// UDP wires the cluster over loopback UDP.
	UDP
)

// clusterSecret seeds a local cluster's key store.
const clusterSecret = "rbft-local-cluster"

// clientRetransmitTimeout is how long a local cluster's client waits for f+1
// matching replies before it retransmits.
const clientRetransmitTimeout = 500 * time.Millisecond

// ClusterOptions configures StartLocalCluster.
type ClusterOptions struct {
	// F is the number of tolerated faults; the cluster has 3f+1 nodes.
	F int
	// Transport selects the wire (default Mem).
	Transport TransportKind
	// NewApp builds each node's application instance (default app.Null).
	NewApp func(n types.NodeID) app.Application
	// OrderingMode selects which instances' orderings reach execution
	// (default master-only; see docs/ORDERING.md). Applies to every node:
	// the mode is a cluster-wide protocol parameter.
	OrderingMode types.OrderingMode
	// ExecWorkers sets each node's execution worker count
	// (core.Config.ExecWorkers, docs/EXECUTION.md). Requests apply in
	// parallel only when >= 2 AND the application implements
	// app.ConflictKeyer; otherwise each node applies them one by one.
	ExecWorkers int
	// Tune adjusts each node's configuration before start.
	Tune func(c *core.Config)
	// MaxClients bounds the client id space (default 64).
	MaxClients int
	// Metrics, when set, receives node and transport counters (message
	// volumes, ordering latency, transport drops).
	Metrics *obs.Registry
	// Tracer, when set, receives every node's protocol events (e.g. an
	// obs.FlightRecorder for post-mortem inspection).
	Tracer obs.Tracer
	// DataDir, when set, turns on durability: each node keeps a WAL under
	// DataDir/node-<i>, persists crash-survivable state before it becomes
	// externally visible, and recovers from it on (re)start.
	DataDir string
	// WALTune adjusts each node's WAL options (the live benchmark turns
	// fsync off) before the log is opened. Only used with DataDir.
	WALTune func(o *wal.Options)
}

// LocalCluster is a full RBFT cluster running inside one process, over
// in-memory channels or real loopback sockets. It backs the examples, the
// integration tests and the cmd tools' --local mode.
type LocalCluster struct {
	Cluster types.Config

	opts  ClusterOptions
	ks    *crypto.KeyStore
	net   *memnet.Network
	nodes []*NodeRuntime
	wals  []*wal.Log        // per node; nil entries without DataDir
	addrs map[string]string // endpoint name -> dial address (tcp/udp)

	clients []*ClientRuntime
}

// StartLocalCluster boots 3f+1 nodes and returns the running cluster.
func StartLocalCluster(opts ClusterOptions) (*LocalCluster, error) {
	opts.Transport = cmp.Or(opts.Transport, Mem)
	opts.MaxClients = cmp.Or(opts.MaxClients, 64)
	cluster := types.NewConfig(opts.F)
	lc := &LocalCluster{
		Cluster: cluster,
		opts:    opts,
		ks:      crypto.NewKeyStore([]byte(clusterSecret), cluster.N, opts.MaxClients),
		addrs:   make(map[string]string),
	}
	if opts.Transport == Mem {
		lc.net = memnet.NewNetwork()
	}

	// First pass: create transports so every node's address is known.
	transports := make([]transport.Transport, cluster.N)
	for i := 0; i < cluster.N; i++ {
		tr, err := lc.listen(NodeName(types.NodeID(i)))
		if err != nil {
			lc.Stop()
			return nil, err
		}
		transports[i] = tr
	}
	for _, tr := range transports {
		lc.addPeersTo(tr)
	}

	// Second pass: start the nodes.
	lc.nodes = make([]*NodeRuntime, cluster.N)
	lc.wals = make([]*wal.Log, cluster.N)
	for i := 0; i < cluster.N; i++ {
		if err := lc.startNode(types.NodeID(i), transports[i]); err != nil {
			lc.Stop()
			return nil, err
		}
	}
	return lc, nil
}

// startNode builds node id (recovering it from its WAL when durability is
// on) and launches its runtime over tr. Used both at boot and by
// RestartNode.
func (lc *LocalCluster) startNode(id types.NodeID, tr transport.Transport) error {
	cfg := core.Config{
		Cluster: lc.Cluster,
		Node:    id,
		Monitoring: monitor.Config{
			Period:      250 * time.Millisecond,
			Delta:       0.5,
			MinRequests: 32,
		},
		BatchTimeout: 2 * time.Millisecond,
		OrderingMode: lc.opts.OrderingMode,
		ExecWorkers:  lc.opts.ExecWorkers,
		Durable:      lc.opts.DataDir != "",
	}
	if lc.opts.NewApp != nil {
		cfg.App = lc.opts.NewApp(id)
	}
	if lc.opts.Tune != nil {
		lc.opts.Tune(&cfg)
	}
	if cfg.App == nil {
		cfg.App = app.Null{}
	}
	cfg.App = InstrumentApp(cfg.App, lc.opts.Tracer, id)
	ring := lc.ks.NodeRing(id)
	// Derive the pairwise MAC keys up front so the ingress pipeline
	// never pays key derivation under load.
	ring.WarmPairKeys(lc.Cluster.N, lc.opts.MaxClients)
	node := core.New(cfg, ring)
	if lc.opts.Tracer != nil {
		node.SetTracer(lc.opts.Tracer)
	}
	node.SetRegistry(lc.opts.Metrics) // a nil registry wires nothing

	var w *wal.Log
	if lc.opts.DataDir != "" {
		wopts := wal.Options{Dir: filepath.Join(lc.opts.DataDir, fmt.Sprintf("node-%d", id))}
		if lc.opts.WALTune != nil {
			lc.opts.WALTune(&wopts)
		}
		var err error
		w, err = OpenNodeWAL(node, wopts, lc.opts.Metrics)
		if err != nil {
			return fmt.Errorf("runtime: node %d: %w", id, err)
		}
	}
	lc.wals[id] = w
	lc.nodes[id] = StartNodeOpts(node, tr, lc.Cluster, NodeOptions{
		WAL:     w,
		Metrics: lc.opts.Metrics,
		Tracer:  lc.opts.Tracer,
	})
	return nil
}

// OpenNodeWAL opens (or creates) a node's WAL and replays it into the
// freshly constructed node, which must have been built with Durable set and
// must not have processed any input yet. Recovery is instrumented on reg:
// rbft_wal_recovery_us holds the last replay's duration and
// rbft_wal_replayed_records how many records it carried.
func OpenNodeWAL(node *core.Node, wopts wal.Options, reg *obs.Registry) (*wal.Log, error) {
	start := time.Now()
	w, err := wal.Open(wopts)
	if err != nil {
		return nil, fmt.Errorf("open wal: %w", err)
	}
	w.SetMetrics(reg)
	if _, err := node.Restore(w.Replay); err != nil {
		w.Close()
		return nil, fmt.Errorf("recover from wal: %w", err)
	}
	if reg != nil {
		reg.Gauge("rbft_wal_recovery_us").Set(time.Since(start).Microseconds())
		reg.Gauge("rbft_wal_replayed_records").Set(int64(w.Replayed()))
	}
	return w, nil
}

// RestartNode simulates a crash and recovery of node id: the runtime is
// stopped and discarded, and a brand-new node (fresh application instance
// included) is rebuilt purely from the WAL in the cluster's data directory,
// rejoining on the same endpoint name. Requires DataDir.
func (lc *LocalCluster) RestartNode(id types.NodeID) error {
	if lc.opts.DataDir == "" {
		return fmt.Errorf("runtime: RestartNode requires ClusterOptions.DataDir")
	}
	lc.nodes[id].Stop()
	if w := lc.wals[id]; w != nil {
		w.Close()
		lc.wals[id] = nil
	}
	tr, err := lc.listen(NodeName(id))
	if err != nil {
		return err
	}
	if lc.opts.Transport != Mem {
		// The reborn endpoint has a new port: refresh everyone's peer table.
		lc.addPeersTo(tr)
		for i, nr := range lc.nodes {
			if types.NodeID(i) != id {
				lc.addPeersTo(nr.tr)
			}
		}
		for _, cr := range lc.clients {
			lc.addPeersTo(cr.tr)
		}
	}
	return lc.startNode(id, tr)
}

// listen creates one endpoint of the configured kind.
func (lc *LocalCluster) listen(name string) (transport.Transport, error) {
	var ep interface {
		transport.Transport
		SetMetrics(transport.Metrics)
	}
	var err error
	switch lc.opts.Transport {
	case Mem:
		ep = lc.net.Endpoint(name)
	case TCP:
		ep, err = tcpnet.Listen(name, "127.0.0.1:0", nil)
	case UDP:
		ep, err = udpnet.Listen(name, "127.0.0.1:0", nil)
	default:
		return nil, fmt.Errorf("runtime: unknown transport kind %d", lc.opts.Transport)
	}
	if err != nil {
		return nil, err
	}
	ep.SetMetrics(transport.NewMetrics(lc.opts.Metrics, [...]string{Mem: "mem", TCP: "tcp", UDP: "udp"}[lc.opts.Transport]))
	if sock, ok := ep.(interface{ Addr() string }); ok {
		lc.addrs[name] = sock.Addr()
	}
	return ep, nil
}

// addPeersTo registers every other endpoint's address with ep.
func (lc *LocalCluster) addPeersTo(ep transport.Transport) {
	for name, addr := range lc.addrs {
		if name == ep.Name() {
			continue
		}
		switch e := ep.(type) {
		case *tcpnet.Endpoint:
			e.AddPeer(name, addr)
		case *udpnet.Endpoint:
			_ = e.AddPeer(name, addr)
		}
	}
}

// NewClient starts a client runtime attached to the cluster.
func (lc *LocalCluster) NewClient(id types.ClientID) (*ClientRuntime, error) {
	tr, err := lc.listen(ClientName(id))
	if err != nil {
		return nil, err
	}
	// Tell every node how to reach this client, and this client how to
	// reach every node.
	if lc.opts.Transport != Mem {
		for _, nr := range lc.nodes {
			lc.addPeersTo(nr.tr)
		}
		lc.addPeersTo(tr)
	}
	cl := client.New(client.Config{
		Cluster:           lc.Cluster,
		ID:                id,
		RetransmitTimeout: clientRetransmitTimeout,
	}, lc.ks.ClientRing(id))
	cr := StartClient(cl, tr, lc.Cluster)
	lc.clients = append(lc.clients, cr)
	return cr, nil
}

// Node returns the runtime of node i (fault injection in tests).
func (lc *LocalCluster) Node(i types.NodeID) *NodeRuntime { return lc.nodes[i] }

// Stop shuts down all clients and nodes, flushing and closing any WALs.
func (lc *LocalCluster) Stop() {
	for _, cr := range lc.clients {
		cr.Stop()
	}
	for _, nr := range lc.nodes {
		if nr != nil {
			nr.Stop()
		}
	}
	for i, w := range lc.wals {
		if w != nil {
			w.Close()
			lc.wals[i] = nil
		}
	}
}
