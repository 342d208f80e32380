package rbft_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleCompiles type-checks the nested bench/ module against this
// tree. bench/ is its own module, so `go build ./... && go test ./...` from
// the root never compiles it, while it reaches into internal/core,
// internal/runtime, internal/exec and internal/pbft: a change that narrows
// one of those APIs would otherwise break the live benchmark (BENCHMARK.json)
// without any tier-1 signal. The environment is the one bench/run.sh builds
// under.
func TestBenchModuleCompiles(t *testing.T) {
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
