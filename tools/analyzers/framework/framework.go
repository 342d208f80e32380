// Package framework is a dependency-free miniature of golang.org/x/tools'
// go/analysis: an Analyzer/Pass API, a package loader built on
// `go list -export` plus the standard library's gc export-data importer,
// diagnostic suppression comments, and (in analysistest.go) a `// want`
// expectation harness for analyzer self-tests.
//
// It exists because this repository vendors nothing: the protocol-invariant
// analyzers under tools/analyzers must build with the Go standard library
// alone.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis pass over a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //rbft:ignore suppression comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Scope reports whether the analyzer applies to a package import path
	// when driven by cmd/rbft-vet; nil means every package. Self-tests
	// bypass it.
	Scope func(pkgPath string) bool
	// Run analyzes one package, reporting findings via pass.Reportf.
	Run func(*Pass) error
	// Annotations lists the //rbft:<name> source annotations this analyzer
	// understands (e.g. "dispatch"). cmd/rbft-vet takes the union across
	// registered analyzers — plus the framework's own "ignore" — and rejects
	// any //rbft: annotation outside it, so a typo'd directive fails CI
	// instead of silently disabling its check.
	Annotations []string
}

// Applies reports whether a runs on the package at pkgPath: a nil Scope
// is every package.
func (a *Analyzer) Applies(pkgPath string) bool {
	return a.Scope == nil || a.Scope(pkgPath)
}

// Diagnostic is one finding, positioned in the loaded file set.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one package's syntax and type information to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Run executes the analyzer on pkg and returns its diagnostics with
// //rbft:ignore suppressions already applied, sorted by position.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Syntax,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
	}
	diags := filterSuppressed(a.Name, pkg, pass.diags)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// ---- suppression ----

// A diagnostic is suppressed when the same line, or the line immediately
// above it, carries a comment of the form
//
//	//rbft:ignore <analyzer>[,<analyzer>...] -- <reason>
//
// naming the reporting analyzer. The reason is mandatory by convention
// (reviewed, not enforced).
func filterSuppressed(name string, pkg *Package, diags []Diagnostic) []Diagnostic {
	idx := pkg.commentLines()
	var kept []Diagnostic
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		lines := idx[pos.Filename]
		if ignores(lines[pos.Line], name) || ignores(lines[pos.Line-1], name) {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

func ignores(comment, analyzer string) bool {
	i := strings.Index(comment, "rbft:ignore")
	if i < 0 {
		return false
	}
	rest := strings.TrimSpace(comment[i+len("rbft:ignore"):])
	if j := strings.Index(rest, "--"); j >= 0 {
		rest = rest[:j]
	}
	// First whitespace-delimited token is the analyzer list.
	names := strings.Fields(rest)
	if len(names) == 0 {
		return false
	}
	for _, n := range strings.Split(names[0], ",") {
		if n == analyzer || n == "all" {
			return true
		}
	}
	return false
}

// CommentIndex maps filename -> line -> concatenated comment text on that
// line. Used for suppression and for analyzer annotations such as
// //rbft:dispatch.
type CommentIndex map[string]map[int]string

// commentLines builds (and caches) the package's comment index.
func (p *Package) commentLines() CommentIndex {
	if p.comments != nil {
		return p.comments
	}
	idx := make(CommentIndex)
	for _, f := range p.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := p.Fset.Position(c.Pos())
				m := idx[pos.Filename]
				if m == nil {
					m = make(map[int]string)
					idx[pos.Filename] = m
				}
				// A comment can span lines (/* */); attribute its text to
				// every line it covers so lookups by line are uniform.
				end := p.Fset.Position(c.End())
				for l := pos.Line; l <= end.Line; l++ {
					m[l] += c.Text
				}
			}
		}
	}
	p.comments = idx
	return idx
}

// CommentOnOrAbove returns the comment text on the line of pos or the line
// immediately above, for annotation lookups.
func (p *Package) CommentOnOrAbove(pos token.Pos) string {
	idx := p.commentLines()
	position := p.Fset.Position(pos)
	lines := idx[position.Filename]
	return lines[position.Line-1] + lines[position.Line]
}
