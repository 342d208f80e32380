package pipeblock_test

import (
	"testing"

	"rbft/tools/analyzers/framework"
	"rbft/tools/analyzers/pipeblock"
)

func TestAnalyzer(t *testing.T) {
	framework.RunTest(t, framework.TestData(t), pipeblock.Analyzer, "a")
}

func TestScope(t *testing.T) {
	// pipeblock runs on every package: its convention is checked
	// wherever it is written.
	for _, path := range []string{"rbft/internal/runtime", "rbft/internal/wal", "rbft/internal/exec", "rbft/internal/core", "rbft/cmd/rbft-node"} {
		if !pipeblock.Analyzer.Applies(path) {
			t.Errorf("Applies(%q) = false, want true", path)
		}
	}
}
