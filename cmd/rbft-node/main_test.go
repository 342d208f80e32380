package main

import (
	"reflect"
	"testing"
)

// TestAddClientPeers pins that a client is registered under the endpoint name
// REPLYs are addressed to (runtime.ClientName of the parsed id), however the
// flag spells the id, and that ids no client can have are rejected.
func TestAddClientPeers(t *testing.T) {
	tests := []struct {
		spec    string
		want    map[string]string
		wantErr bool
	}{
		{spec: "", want: map[string]string{}},
		{spec: "0=a:1", want: map[string]string{"client/0": "a:1"}},
		{spec: "0=a:1,1=b:2", want: map[string]string{"client/0": "a:1", "client/1": "b:2"}},
		{spec: "0=a:1, 1=b:2", want: map[string]string{"client/0": "a:1", "client/1": "b:2"}},
		{spec: "01=a:1", want: map[string]string{"client/1": "a:1"}},
		{spec: "+7 = a:1 ,", want: map[string]string{"client/7": "a:1"}},
		{spec: "-1=a:1", wantErr: true},
		{spec: "x=a:1", wantErr: true},
		{spec: "1x=a:1", wantErr: true},
		{spec: "=a:1", wantErr: true},
		{spec: "3", wantErr: true},
	}
	for _, tt := range tests {
		got := map[string]string{}
		err := addClientPeers(got, tt.spec)
		if tt.wantErr {
			if err == nil {
				t.Errorf("addClientPeers(%q) = %v, want error", tt.spec, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tt.want) {
			t.Errorf("addClientPeers(%q) = %v, %v; want %v", tt.spec, got, err, tt.want)
		}
	}
}
