package lockdiscipline_test

import (
	"testing"

	"rbft/tools/analyzers/framework"
	"rbft/tools/analyzers/lockdiscipline"
)

func TestAnalyzer(t *testing.T) {
	framework.RunTest(t, framework.TestData(t), lockdiscipline.Analyzer, "a")
}

func TestScope(t *testing.T) {
	// lockdiscipline runs on every package: its convention is checked
	// wherever it is written.
	for _, path := range []string{"rbft/internal/runtime", "rbft/internal/transport/tcpnet", "rbft/internal/message", "rbft/internal/obs", "rbft/internal/core", "rbft/internal/sim"} {
		if !lockdiscipline.Analyzer.Applies(path) {
			t.Errorf("Applies(%q) = false, want true", path)
		}
	}
}
