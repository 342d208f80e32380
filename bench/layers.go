package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"rbft/internal/app"
	"rbft/internal/crypto"
	"rbft/internal/exec"
	"rbft/internal/pbft"
	"rbft/internal/runtime"
	"rbft/internal/transport"
	"rbft/internal/transport/memnet"
	"rbft/internal/transport/tcpnet"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// Direct loops over the layers core.Node hides from an outside caller: each
// drives one layer's public functions on the workload's own inputs and sizes
// and times the calls. They run after the stepped pass, single-threaded
// (apart from the workers the layer itself starts).

// usPer is elapsed microseconds per n.
func usPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

// cryptoLoop times the key-ring operations on a payload of the size the
// workload's requests have.
func cryptoLoop(ops [][]byte, m map[string]metric) error {
	cfg := types.NewConfig(1)
	ks := crypto.NewKeyStore([]byte("bench-crypto"), cfg.N, 1)
	client, node := ks.ClientRing(0), ks.NodeRing(0)
	node.WarmPairKeys(cfg.N, 1)
	payload := make([]byte, len(ops[0])+16)
	const sigs, macs = 300, 20000

	t0 := time.Now()
	var sig []byte
	for i := 0; i < sigs; i++ {
		sig = client.Sign(payload)
	}
	m["crypto.sign_us"] = metric{usPer(time.Since(t0), sigs), "us"}

	t0 = time.Now()
	for i := 0; i < sigs; i++ {
		if err := node.VerifyClientSignature(0, payload, sig); err != nil {
			return fmt.Errorf("crypto loop: %w", err)
		}
	}
	m["crypto.verify_sig_us"] = metric{usPer(time.Since(t0), sigs), "us"}

	t0 = time.Now()
	var tag crypto.MAC
	for i := 0; i < macs; i++ {
		tag = node.MACForNode(1, payload)
	}
	m["crypto.mac_us"] = metric{usPer(time.Since(t0), macs), "us"}
	if err := ks.NodeRing(1).VerifyNodeMAC(0, payload, tag); err != nil {
		return fmt.Errorf("crypto loop: %w", err)
	}

	t0 = time.Now()
	for i := 0; i < macs/cfg.N; i++ {
		node.AuthenticatorForNodes(cfg.N, payload)
	}
	m["crypto.authenticator_us"] = metric{usPer(time.Since(t0), macs/cfg.N), "us"}
	return nil
}

// pbftLoop orders refs through four replicas of one instance, cutting a
// batch every batch refs (the live run's mean batch size), and reports the
// ordering cost per request summed over the four replicas.
func pbftLoop(batch int, m map[string]metric) error {
	const refs = 20000
	cfg := types.NewConfig(1)
	ks := crypto.NewKeyStore([]byte("bench-pbft"), cfg.N, 1)
	replicas := make([]*pbft.Instance, cfg.N)
	for n := range replicas {
		replicas[n] = pbft.New(pbft.Config{
			Cluster: cfg, Node: types.NodeID(n), BatchTimeout: 2 * time.Millisecond,
		}, ks.NodeRing(types.NodeID(n)))
	}
	type queued struct {
		from types.NodeID
		out  pbft.Outbound
	}
	var queue []queued
	delivered := 0
	now := time.Unix(0, 0)
	collect := func(from types.NodeID, out pbft.Output) {
		for _, o := range out.Msgs {
			queue = append(queue, queued{from, o})
		}
		if from == 0 {
			for _, b := range out.Delivered {
				delivered += len(b.Refs)
			}
		}
	}
	var firstErr error
	drain := func() {
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			for n := range replicas {
				to := types.NodeID(n)
				if to == q.from || (q.out.To != nil && !slices.Contains(q.out.To, to)) {
					continue
				}
				out, err := replicas[n].OnMessage(q.out.Msg, now)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				collect(to, out)
			}
		}
	}
	t0 := time.Now()
	for i := 0; i < refs; i++ {
		ref := types.RequestRef{Client: 0, ID: types.RequestID(i + 1)}
		ref.Digest[0], ref.Digest[1], ref.Digest[2] = byte(i), byte(i>>8), byte(i>>16)
		for n := range replicas {
			collect(types.NodeID(n), replicas[n].AddRequest(ref, now))
		}
		drain()
		if (i+1)%batch == 0 || i == refs-1 {
			now = now.Add(4 * time.Millisecond) // past the batch timeout
			for n := range replicas {
				collect(types.NodeID(n), replicas[n].Tick(now))
			}
			drain()
		}
	}
	elapsed := time.Since(t0)
	if firstErr != nil {
		return fmt.Errorf("pbft loop: %w", firstErr)
	}
	if delivered != refs {
		return fmt.Errorf("pbft loop: delivered %d of %d refs", delivered, refs)
	}
	m["pbft.order_us_per_req"] = metric{usPer(elapsed, refs), "us"}
	return nil
}

// execLoop plans and executes the workload's ops in batches of the live
// run's mean batch size on the workload's application and worker count.
func execLoop(w workload, ops [][]byte, batch int, m map[string]metric) {
	var a app.Application = app.Null{}
	if w.ops == opKV {
		a = app.NewKV()
	}
	keyer, _ := a.(app.ConflictKeyer)
	sched := exec.New(a, w.execWorkers)
	const total = 32768
	var plan, run time.Duration
	var waves, conflicts, batches, n int
	eops := make([]exec.Op, batch)
	for n < total {
		for i := range eops {
			eops[i] = exec.Op{Client: 0, ID: types.RequestID(n + i + 1), Body: ops[(n+i)%len(ops)]}
		}
		if keyer != nil {
			t0 := time.Now()
			exec.PlanWaves(keyer, eops)
			plan += time.Since(t0)
		}
		t0 := time.Now()
		res := sched.ExecuteBatch(eops)
		run += time.Since(t0)
		waves += len(res.Waves)
		conflicts += res.Conflicts
		batches++
		n += batch
	}
	m["exec.plan_waves_us_per_op"] = metric{usPer(plan, n), "us"}
	m["exec.execute_batch_us_per_op"] = metric{usPer(run, n), "us"}
	m["exec.waves_per_batch"] = metric{float64(waves) / float64(batches), "count"}
	m["exec.conflict_frac"] = metric{float64(conflicts) / float64(n), "ratio"}
}

// walLoop appends executed-request records carrying the workload's ops in
// groups and syncs each group, on the same filesystem the live WAL uses.
func walLoop(ops [][]byte, dataRoot string, m map[string]metric) error {
	dir, err := os.MkdirTemp(dataRoot, "wal-loop-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return fmt.Errorf("wal loop: %w", err)
	}
	defer l.Close()
	const groups, perGroup = 100, 16
	var appendT, syncT time.Duration
	recs := make([]wal.Record, perGroup)
	for g := 0; g < groups; g++ {
		for i := range recs {
			id := g*perGroup + i
			recs[i] = wal.Record{Kind: wal.KindExecuted, Client: 0, Req: types.RequestID(id + 1), Op: ops[id%len(ops)]}
		}
		t0 := time.Now()
		if _, err := l.Append(recs...); err != nil {
			return fmt.Errorf("wal loop: %w", err)
		}
		t1 := time.Now()
		if err := l.Sync(); err != nil {
			return fmt.Errorf("wal loop: %w", err)
		}
		appendT += t1.Sub(t0)
		syncT += time.Since(t1)
	}
	m["wal.append_us_per_rec"] = metric{usPer(appendT, groups*perGroup), "us"}
	m["wal.sync_us"] = metric{usPer(syncT, groups), "us"}
	return nil
}

// transportLoop pings frames of the workload's mean frame size between two
// real endpoints of the workload's transport, and times the batch codec.
func transportLoop(w workload, frameSize int, m map[string]metric) error {
	var a, b transport.Transport
	if w.transport == runtime.TCP {
		ea, err := tcpnet.Listen("a", "127.0.0.1:0", nil)
		if err != nil {
			return err
		}
		eb, err := tcpnet.Listen("b", "127.0.0.1:0", nil)
		if err != nil {
			ea.Close()
			return err
		}
		ea.AddPeer("b", eb.Addr())
		eb.AddPeer("a", ea.Addr())
		a, b = ea, eb
	} else {
		net := memnet.NewNetwork()
		a, b = net.Endpoint("a"), net.Endpoint("b")
	}
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for p := range b.Packets() {
			_ = b.Send("a", p.Data) // best effort: a lost echo fails the ping below
		}
	}()
	defer func() {
		a.Close()
		b.Close()
		<-echoDone
	}()

	payload := make([]byte, frameSize)
	const warm, pings = 200, 2000
	var sendT, rttT time.Duration
	for i := 0; i < warm+pings; i++ {
		t0 := time.Now()
		if err := a.Send("b", payload); err != nil {
			return fmt.Errorf("transport loop: %w", err)
		}
		t1 := time.Now()
		select {
		case <-a.Packets():
		case <-time.After(drainTimeout):
			return fmt.Errorf("transport loop: ping %d lost", i)
		}
		if i >= warm {
			sendT += t1.Sub(t0)
			rttT += time.Since(t0)
		}
	}
	m["transport.send_us_per_frame"] = metric{usPer(sendT, pings), "us"}
	m["transport.roundtrip_us"] = metric{usPer(rttT, pings), "us"}

	const perBatch, batches = 16, 2000
	payloads := make([][]byte, perBatch)
	for i := range payloads {
		payloads[i] = payload
	}
	var dst []byte
	split := 0
	t0 := time.Now()
	for i := 0; i < batches; i++ {
		dst = transport.AppendBatch(dst[:0], payloads)
		if err := transport.SplitBatch(dst, func([]byte) { split++ }); err != nil {
			return fmt.Errorf("transport loop: %w", err)
		}
	}
	if split != perBatch*batches {
		return fmt.Errorf("transport loop: split %d of %d payloads", split, perBatch*batches)
	}
	m["transport.batch_codec_us_per_frame"] = metric{usPer(time.Since(t0), perBatch*batches), "us"}
	return nil
}
