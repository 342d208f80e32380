package main

import (
	"bytes"
	"testing"
)

func sameOps(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := genOps(w, 7), genOps(w, 7), genOps(w, 8)
		if len(a) != w.poolSize {
			t.Errorf("%s: %d ops, want %d", w.name, len(a), w.poolSize)
		}
		if !sameOps(a, b) {
			t.Errorf("%s: same seed gave different op streams", w.name)
		}
		if sameOps(a, c) {
			t.Errorf("%s: different seeds gave the same op stream", w.name)
		}
	}
}

// The cluster sees only the generated ops: two workloads of the same shape
// get byte-identical streams, so neither the name nor anything else about
// the workload leaks into them.
func TestOpStreamIgnoresTheWorkloadName(t *testing.T) {
	small, _ := workloadByName("small-mem")
	silent, _ := workloadByName("primary-silent")
	if !sameOps(genOps(small, 3), genOps(silent, 3)) {
		t.Fatal("small-mem and primary-silent differ for the same seed")
	}
}

func TestKVOpShape(t *testing.T) {
	w, _ := workloadByName("kv-tcp-wal")
	gets, puts := 0, 0
	for _, op := range genOps(w, 1) {
		switch {
		case bytes.HasPrefix(op, []byte("GET k")) && len(op) == len("GET k0000"):
			gets++
		case bytes.HasPrefix(op, []byte("PUT k")) && len(op) == len("PUT k0000 ")+kvValueLen:
			puts++
			if !bytes.Equal(op[len("PUT k"):len("PUT k0000")], op[len("PUT k0000 "):len("PUT k0000 0000")]) {
				t.Fatalf("PUT value does not name its key: %q", op)
			}
		default:
			t.Fatalf("malformed op %q", op)
		}
	}
	if frac := float64(gets) / float64(gets+puts); frac < 0.45 || frac > 0.55 {
		t.Errorf("GET share %.3f, want about half", frac)
	}
}

func TestCheckResult(t *testing.T) {
	kv, _ := workloadByName("kv-tcp-wal")
	null, _ := workloadByName("small-mem")
	value := append([]byte("0012:"), bytes.Repeat([]byte("a"), kvValueLen-5)...)
	other := append([]byte("0013:"), bytes.Repeat([]byte("a"), kvValueLen-5)...)
	for _, tc := range []struct {
		w          workload
		op, result string
		ok         bool
	}{
		{null, "12345678", "ok", true},
		{null, "12345678", "OK", false},
		{kv, "PUT k0012 " + string(value), "OK", true},
		{kv, "PUT k0012 " + string(value), "NOT_FOUND", false},
		{kv, "GET k0012", "NOT_FOUND", true},
		{kv, "GET k0012", string(value), true},
		{kv, "GET k0012", string(other), false}, // a value written to another key
		{kv, "GET k0012", "0012:short", false},
	} {
		err := checkResult(tc.w, []byte(tc.op), []byte(tc.result))
		if (err == nil) != tc.ok {
			t.Errorf("checkResult(%s, %q, %q) = %v, want ok=%v", tc.w.name, tc.op, tc.result, err, tc.ok)
		}
	}
}
