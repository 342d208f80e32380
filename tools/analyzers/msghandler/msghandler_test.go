package msghandler_test

import (
	"testing"

	"rbft/tools/analyzers/framework"
	"rbft/tools/analyzers/msghandler"
)

func TestAnalyzer(t *testing.T) {
	framework.RunTest(t, framework.TestData(t), msghandler.Analyzer, "a")
}

func TestScope(t *testing.T) {
	// msghandler runs on every package: its convention is checked
	// wherever it is written.
	for _, path := range []string{"rbft/internal/core", "rbft/internal/pbft", "rbft/internal/message", "rbft/internal/transport", "rbft/internal/crypto"} {
		if !msghandler.Analyzer.Applies(path) {
			t.Errorf("Applies(%q) = false, want true", path)
		}
	}
}
