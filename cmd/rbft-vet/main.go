// Command rbft-vet is the multichecker for the repository's protocol
// invariants. It runs the custom analyzers under tools/analyzers
// (simdeterminism, maprange, lockdiscipline, msghandler, quorumsafety,
// trustboundary, pipeblock) against the packages each one is scoped to,
// and rejects any //rbft: source annotation no analyzer understands.
//
// It loads the packages itself (framework.Load):
//
//	go run ./cmd/rbft-vet ./...
//	go run ./cmd/rbft-vet -analyzers=quorumsafety,pipeblock ./...
//
// Diagnostics are printed in a stable order (file, line, column, analyzer)
// so runs diff cleanly. Exit status is non-zero when any diagnostic is
// reported. Suppress a justified false positive with a comment on (or
// directly above) the offending line:
//
//	//rbft:ignore <analyzer> -- <reason>
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"sort"
	"strings"

	"rbft/tools/analyzers/framework"
	"rbft/tools/analyzers/lockdiscipline"
	"rbft/tools/analyzers/maprange"
	"rbft/tools/analyzers/msghandler"
	"rbft/tools/analyzers/pipeblock"
	"rbft/tools/analyzers/quorumsafety"
	"rbft/tools/analyzers/simdeterminism"
	"rbft/tools/analyzers/trustboundary"
)

var analyzers = []*framework.Analyzer{
	simdeterminism.Analyzer,
	maprange.Analyzer,
	lockdiscipline.Analyzer,
	msghandler.Analyzer,
	quorumsafety.Analyzer,
	trustboundary.Analyzer,
	pipeblock.Analyzer,
}

func main() {
	all := flag.Bool("all", false, "ignore analyzer scopes and run every analyzer on every package")
	subset := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all registered)")
	flag.Parse()

	selected, err := selectAnalyzers(*subset)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	os.Exit(run(flag.Args(), selected, *all))
}

// selectAnalyzers resolves the -analyzers flag against the registry. The
// empty subset means every registered analyzer.
func selectAnalyzers(subset string) ([]*framework.Analyzer, error) {
	if subset == "" {
		return analyzers, nil
	}
	byName := make(map[string]*framework.Analyzer, len(analyzers))
	var names []string
	for _, a := range analyzers {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	var selected []*framework.Analyzer
	for _, name := range strings.Split(subset, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("rbft-vet: unknown analyzer %q (registered: %s)", name, strings.Join(names, ", "))
		}
		selected = append(selected, a)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("rbft-vet: -analyzers=%q selects nothing", subset)
	}
	return selected, nil
}

// finding is one diagnostic tagged with its analyzer for stable ordering.
type finding struct {
	pos      token.Position
	analyzer string
	message  string
}

func sortFindings(fs []finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		if a.analyzer != b.analyzer {
			return a.analyzer < b.analyzer
		}
		return a.message < b.message
	})
}

// run loads the named package patterns, runs every applicable selected
// analyzer, audits //rbft: annotations, and prints the findings in stable
// order.
func run(patterns []string, selected []*framework.Analyzer, all bool) int {
	pkgs, err := framework.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// The annotation audit always checks against every registered
	// analyzer's vocabulary: running a subset must not make the other
	// analyzers' annotations "unknown".
	known := framework.KnownAnnotations(analyzers)

	var findings []finding
	for _, pkg := range pkgs {
		for _, a := range selected {
			if !all && !a.Scope(pkg.PkgPath) {
				continue
			}
			diags, err := framework.Run(a, pkg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			for _, d := range diags {
				findings = append(findings, finding{pos: pkg.Fset.Position(d.Pos), analyzer: a.Name, message: d.Message})
			}
		}
		for _, d := range framework.CheckAnnotations(pkg, known) {
			findings = append(findings, finding{pos: pkg.Fset.Position(d.Pos), analyzer: "annotations", message: d.Message})
		}
	}
	if len(findings) == 0 {
		return 0
	}
	sortFindings(findings)
	for _, f := range findings {
		fmt.Printf("%s: %s: %s\n", f.pos, f.analyzer, f.message)
	}
	return 1
}
