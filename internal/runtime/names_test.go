package runtime

import "testing"

func TestNames(t *testing.T) {
	if got := NodeName(3); got != "node/3" {
		t.Errorf("NodeName(3) = %q", got)
	}
	if got := ClientName(7); got != "client/7" {
		t.Errorf("ClientName(7) = %q", got)
	}
}

func TestParseName(t *testing.T) {
	tests := []struct {
		in      string
		want    endpoint
		wantErr bool
	}{
		{in: "node/0", want: nodeEndpoint(0)},
		{in: "node/12", want: nodeEndpoint(12)},
		{in: "client/5", want: clientEndpoint(5)},
		{in: "garbage", wantErr: true},
		{in: "node/x", wantErr: true},
		{in: "peer/1", wantErr: true},
		{in: "", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseName(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("parseName(%q) succeeded, want error", tt.in)
			}
			continue
		}
		if err != nil || got != tt.want {
			t.Errorf("parseName(%q) = (%+v, %v), want %+v", tt.in, got, err, tt.want)
		}
		if got.name() != tt.in {
			t.Errorf("parseName(%q).name() = %q: not the inverse", tt.in, got.name())
		}
	}
}
