package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"rbft/internal/runtime"
)

// opKind selects the application and the shape of the generated operations.
type opKind int

const (
	opNull8  opKind = iota // 8-byte opaque ops against app.Null
	opNull4k               // 4096-byte opaque ops against app.Null
	opKV                   // 50% GET / 50% PUT text ops against app.KV
)

// workload is one named set of inputs plus the cluster configuration it runs
// against. Rates are absolute so two commits see the same offered load.
type workload struct {
	name string
	why  string
	ops  opKind
	// poolSize is the number of distinct operations generated from the
	// seed; the phases cycle through the pool (request ids keep every
	// request distinct on the wire).
	poolSize    int
	transport   runtime.TransportKind
	durable     bool
	execWorkers int
	// rate is the open-loop offered load of the rate phase, in requests/s.
	rate int
	// silentPrimary makes node 0's master-instance replica (the master
	// primary at view 0) withhold its PRE-PREPAREs, in a fault stage before
	// the measured cycles.
	silentPrimary bool
}

var workloads = []workload{
	{
		name: "small-mem", ops: opNull8, poolSize: 1 << 16, transport: runtime.Mem, rate: 1500,
		why: "8 B null ops over memnet: per-request protocol overhead (crypto, codec, core, pbft) does nearly all the work (paper fig. 7a)",
	},
	{
		name: "large-mem", ops: opNull4k, poolSize: 1 << 11, transport: runtime.Mem, rate: 700,
		why: "4 kB null ops over memnet: same message count, cost moves to bytes - PROPAGATE fan-out, digests, codec copies (paper fig. 7b)",
	},
	{
		name: "kv-tcp-wal", ops: opKV, poolSize: 1 << 16, transport: runtime.TCP, durable: true, execWorkers: 2, rate: 1000,
		why: "KV GET/PUT (Zipf keys) over loopback TCP with a durable WAL and 2 exec workers: the only one where transport, wal, exec and app work",
	},
	{
		name: "primary-silent", ops: opNull8, poolSize: 1 << 16, transport: runtime.Mem, rate: 1500, silentPrimary: true,
		why: "small-mem after the master primary starts withholding its PRE-PREPAREs under open-loop load: one instance change, then capacity with it replaced",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// KV workload shape: 4096 keys drawn Zipf(s=1.1), 64-byte values.
const (
	kvKeys     = 4096
	kvValueLen = 64
	kvZipfS    = 1.1
)

// kvKey renders key k. Keys and value prefixes are fixed width so every op
// of a verb has the same size.
func kvKey(k int) string { return fmt.Sprintf("k%04x", k) }

// kvValuePrefix is how a PUT value names the key it was written to, which
// lets the checker validate any GET result without knowing the order the
// cluster executed concurrent requests in.
func kvValuePrefix(k int) string { return fmt.Sprintf("%04x:", k) }

// genOps derives the workload's operation pool from seed and nothing else:
// the cluster only ever sees these bytes, never the seed or workload name.
func genOps(w workload, seed int64) [][]byte {
	r := rand.New(rand.NewSource(seed))
	ops := make([][]byte, w.poolSize)
	switch w.ops {
	case opNull8, opNull4k:
		size := 8
		if w.ops == opNull4k {
			size = 4096
		}
		backing := make([]byte, size*w.poolSize)
		r.Read(backing)
		for i := range ops {
			ops[i] = backing[i*size : (i+1)*size : (i+1)*size]
		}
	case opKV:
		zipf := rand.NewZipf(r, kvZipfS, 1, kvKeys-1)
		const hex = "0123456789abcdef"
		for i := range ops {
			k := int(zipf.Uint64())
			if r.Intn(2) == 0 {
				ops[i] = []byte("GET " + kvKey(k))
				continue
			}
			var b bytes.Buffer
			b.WriteString("PUT " + kvKey(k) + " " + kvValuePrefix(k))
			for b.Len() < len("PUT k0000 ")+kvValueLen {
				b.WriteByte(hex[r.Intn(16)])
			}
			ops[i] = b.Bytes()
		}
	}
	return ops
}

// checkResult validates one accepted reply against the operation that
// produced it. Null acknowledges with "ok"; a KV PUT answers "OK" and a GET
// answers NOT_FOUND or some value previously PUT to the same key.
func checkResult(w workload, op, result []byte) error {
	switch w.ops {
	case opNull8, opNull4k:
		if string(result) != "ok" {
			return fmt.Errorf("null op answered %q", result)
		}
	case opKV:
		if bytes.HasPrefix(op, []byte("PUT ")) {
			if string(result) != "OK" {
				return fmt.Errorf("PUT answered %q", result)
			}
			return nil
		}
		if string(result) == "NOT_FOUND" {
			return nil
		}
		key := op[len("GET k"):]
		if len(result) != kvValueLen || !bytes.HasPrefix(result, key) || result[len(key)] != ':' {
			return fmt.Errorf("%s answered %q", op, result)
		}
	}
	return nil
}
