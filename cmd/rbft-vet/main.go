// Command rbft-vet is the multichecker for the repository's protocol
// invariants. It runs every custom analyzer under tools/analyzers
// (simdeterminism, maprange, lockdiscipline, msghandler, quorumsafety,
// trustboundary, pipeblock) on each package it applies to, and rejects any
// //rbft: source annotation no analyzer understands. It takes no flags,
// only package patterns, and loads the packages itself (framework.Load):
//
//	go run ./cmd/rbft-vet ./...
//
// Diagnostics are printed in a stable order (file, line, column, analyzer)
// so runs diff cleanly. Exit status is non-zero when any diagnostic is
// reported. Suppress a justified false positive with a comment on (or
// directly above) the offending line:
//
//	//rbft:ignore <analyzer> -- <reason>
package main

import (
	"fmt"
	"go/token"
	"os"
	"sort"

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
	os.Exit(run(os.Args[1:]))
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

// run loads the named package patterns, runs every applicable analyzer,
// audits //rbft: annotations, and prints the findings in stable order.
func run(patterns []string) int {
	pkgs, err := framework.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	known := framework.KnownAnnotations(analyzers)

	var findings []finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if !a.Applies(pkg.PkgPath) {
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
