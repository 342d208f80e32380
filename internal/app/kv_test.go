package app

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// refParseOp is the KV parser as it was before parsing moved in place: the
// op converted to a string and split with strings.SplitN. FuzzKVParse holds
// parseOp to it.
func refParseOp(op []byte) (verb kvVerb, key, value, rawVerb string) {
	s := string(op)
	if strings.TrimSpace(s) == "" {
		return kvEmpty, "", "", ""
	}
	parts := strings.SplitN(s, " ", 3)
	rawVerb = parts[0]
	switch strings.ToUpper(rawVerb) {
	case "PUT":
		if len(parts) != 3 {
			return kvBadPut, "", "", rawVerb
		}
		return kvPut, parts[1], parts[2], rawVerb
	case "GET":
		if len(parts) != 2 {
			return kvBadGet, "", "", rawVerb
		}
		return kvGet, parts[1], "", rawVerb
	case "DEL":
		if len(parts) != 2 {
			return kvBadDel, "", "", rawVerb
		}
		return kvDel, parts[1], "", rawVerb
	default:
		return kvUnknown, "", "", rawVerb
	}
}

// refExecute is KV.Execute over refParseOp and a plain map.
func refExecute(store map[string]string, op []byte) string {
	verb, key, value, rawVerb := refParseOp(op)
	switch verb {
	case kvPut:
		store[key] = value
		return "OK"
	case kvGet:
		if v, ok := store[key]; ok {
			return v
		}
		return "NOT_FOUND"
	case kvDel:
		delete(store, key)
		return "OK"
	case kvEmpty:
		return "ERR empty op"
	case kvBadPut:
		return "ERR usage: PUT key value"
	case kvBadGet:
		return "ERR usage: GET key"
	case kvBadDel:
		return "ERR usage: DEL key"
	default:
		return fmt.Sprintf("ERR unknown op %q", rawVerb)
	}
}

// FuzzKVParse: for every op, the in-place parser yields the reference's
// verb, key, value and raw verb, and Execute, ExecuteRead and Keys answer as
// the reference does — after a setup op, so that GETs hit as well as miss.
func FuzzKVParse(f *testing.F) {
	for _, op := range []string{
		"PUT k v", "GET k", "DEL k", "put k  two  spaces ", "gEt k", "PUT k", "GET", "GET k extra",
		"DEL", "", " \t ", " ", " GET k", "NOPE x", "PUT  v", "GET ", "ſet k", "GEt\tk", "PUT k \xff",
	} {
		f.Add([]byte("PUT k stored"), []byte(op))
	}
	f.Fuzz(func(t *testing.T, setup, op []byte) {
		verb, key, value, rawVerb := parseOp(op)
		rv, rk, rval, rraw := refParseOp(op)
		if verb != rv || string(key) != rk || string(value) != rval || string(rawVerb) != rraw {
			t.Fatalf("parseOp(%q) = %d %q %q %q, want %d %q %q %q", op, verb, key, value, rawVerb, rv, rk, rval, rraw)
		}
		kv, store := NewKV(), map[string]string{}
		if got, want := kv.Execute(1, 1, setup), refExecute(store, setup); string(got) != want {
			t.Fatalf("Execute(%q) = %q, want %q", setup, got, want)
		}
		read, isRead := kv.ExecuteRead(op)
		if isRead != (rv == kvGet) || isRead && string(read) != refExecute(maps.Clone(store), op) {
			t.Fatalf("ExecuteRead(%q) = %q, %v", op, read, isRead)
		}
		if got, want := kv.Execute(1, 2, op), refExecute(store, op); string(got) != want {
			t.Fatalf("Execute(%q) = %q, want %q", op, got, want)
		}
		if !maps.Equal(kv.Snapshot(), store) {
			t.Fatalf("after %q then %q: store %v, want %v", setup, op, kv.Snapshot(), store)
		}
		reads, writes := kv.Keys(op)
		var wantReads, wantWrites []string
		switch rv {
		case kvGet:
			wantReads = []string{rk}
		case kvPut, kvDel:
			wantWrites = []string{rk}
		}
		if !slices.Equal(reads, wantReads) || !slices.Equal(writes, wantWrites) {
			t.Fatalf("Keys(%q) = %q, %q, want %q, %q", op, reads, writes, wantReads, wantWrites)
		}
	})
}

// TestKVAllocations pins what an op costs the application (scripts/ci.sh's
// allocation gate): a GET hit copies its value, a PUT allocates the string
// that holds the stored key and value, Keys the key and its slice; a GET
// miss and Null allocate nothing. Shared results are capacity-clipped.
func TestKVAllocations(t *testing.T) {
	kv := NewKV()
	kv.Execute(1, 1, []byte("PUT key-17 value-17"))
	put, hit, miss := []byte("PUT key-17 value-18"), []byte("GET key-17"), []byte("GET key-99")
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"GET hit", 1, func() { kv.Execute(1, 2, hit) }},
		{"GET miss", 0, func() { kv.Execute(1, 2, miss) }},
		{"PUT", 1, func() { kv.Execute(1, 2, put) }},
		{"Keys", 2, func() { kv.Keys(hit) }},
		{"Null", 0, func() { Null{}.Execute(1, 2, hit) }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != c.want {
			t.Errorf("%s: %v allocs, want %v", c.name, n, c.want)
		}
	}
	for _, r := range [][]byte{kv.Execute(1, 3, miss), kv.Execute(1, 3, put), Null{}.Execute(1, 3, nil)} {
		if cap(r) != len(r) {
			t.Errorf("shared result %q: capacity %d past its %d bytes", r, cap(r), len(r))
		}
	}
}

// BenchmarkKVExecute measures one op through KV.Keys and KV.Execute, as the
// execution stage calls them: allocs/op is the application's share of a
// request on each node.
func BenchmarkKVExecute(b *testing.B) {
	for _, op := range []string{"GET key-17", "PUT key-17 value-17"} {
		b.Run(op[:3], func(b *testing.B) {
			kv := NewKV()
			kv.Execute(1, 1, []byte("PUT key-17 value-17"))
			body := []byte(op)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kv.Keys(body)
				kv.Execute(1, 2, body)
			}
		})
	}
}
