// Package msghandler makes message dispatch exhaustive: a new wire message
// type added to internal/message must be wired into every protocol handler
// switch, or it would be silently dropped (worse: dropped by only some
// replicas, which in RBFT skews the cross-instance throughput comparison the
// instance-change mechanism depends on).
//
// Two checks:
//
//  1. A type switch annotated with
//     //rbft:dispatch [ignore=TypeA,TypeB,...]
//     over a named interface must have a case arm for every concrete type in
//     the interface's defining package that implements it, except the types
//     explicitly listed in ignore= (which documents *why a type cannot reach
//     this switch* — e.g. node-level messages never reach an instance).
//
//  2. A package-level map literal keyed by a locally declared integer enum
//     (e.g. message.typeNames, keyed by message.Type) must contain an entry
//     for every package constant of that enum type, so human-readable names
//     and type registries cannot lag behind new constants.
package msghandler

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"rbft/tools/analyzers/framework"
)

// Analyzer is the msghandler pass. It runs on every package: a dispatch
// annotation or an enum-keyed registry means the same wherever it is written.
var Analyzer = &framework.Analyzer{
	Name:        "msghandler",
	Doc:         "require annotated dispatch switches and enum-keyed registries to be exhaustive over message types",
	Run:         run,
	Annotations: []string{"dispatch"},
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSwitchStmt:
				checkDispatch(pass, f, n)
			case *ast.SwitchStmt:
				checkEnumSwitch(pass, f, n)
			}
			return true
		})
		checkEnumMaps(pass, f)
	}
	return nil
}

// checkEnumSwitch verifies an annotated value switch over an integer enum
// (e.g. the codec's decode switch over message.Type) covers every constant
// of the enum type declared in the enum's package.
func checkEnumSwitch(pass *framework.Pass, f *ast.File, sw *ast.SwitchStmt) {
	annotated, ignore := dispatchAnnotation(pass, f, sw)
	if !annotated {
		return
	}
	if sw.Tag == nil {
		pass.Reportf(sw.Pos(), "//rbft:dispatch switch has no tag expression")
		return
	}
	tagType := pass.TypesInfo.TypeOf(sw.Tag)
	named, ok := tagType.(*types.Named)
	if !ok {
		pass.Reportf(sw.Pos(), "//rbft:dispatch switch tag must have a named enum type, got %s", tagType)
		return
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		pass.Reportf(sw.Pos(), "//rbft:dispatch switch tag type %s is not an integer enum", named)
		return
	}

	handled := make(map[string]bool)
	for _, clause := range sw.Body.List {
		for _, e := range clause.(*ast.CaseClause).List {
			if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
				handled[tv.Value.ExactString()] = true
			}
		}
	}

	var missing []string
	for _, c := range enumConstants(named) {
		if !handled[c.Val().ExactString()] && !ignore[c.Name()] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) > 0 {
		pass.Reportf(sw.Pos(), "dispatch switch over %s is missing arms for: %s (add cases or document with ignore=)",
			named.Obj().Name(), strings.Join(missing, ", "))
	}
}

// enumConstants lists the constants of the named type declared in its own
// package, in declaration-scope order (sorted by name).
func enumConstants(named *types.Named) []*types.Const {
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return nil
	}
	var out []*types.Const
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if types.Identical(c.Type(), named) {
			out = append(out, c)
		}
	}
	return out
}

// dispatchAnnotation returns (found, ignore set) for the comment preceding
// pos.
func dispatchAnnotation(pass *framework.Pass, f *ast.File, pos ast.Node) (bool, map[string]bool) {
	text := commentAbove(pass, f, pos)
	i := strings.Index(text, "rbft:dispatch")
	if i < 0 {
		return false, nil
	}
	ignore := make(map[string]bool)
	rest := text[i+len("rbft:dispatch"):]
	for _, field := range strings.Fields(rest) {
		if list, ok := strings.CutPrefix(field, "ignore="); ok {
			for _, name := range strings.Split(list, ",") {
				ignore[strings.TrimSpace(name)] = true
			}
		}
	}
	return true, ignore
}

// commentAbove collects comment text on the line of n or the line above.
func commentAbove(pass *framework.Pass, f *ast.File, n ast.Node) string {
	target := pass.Fset.Position(n.Pos()).Line
	var out strings.Builder
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			l := pass.Fset.Position(c.Pos()).Line
			if l == target || l == target-1 {
				out.WriteString(c.Text)
			}
		}
	}
	return out.String()
}

func checkDispatch(pass *framework.Pass, f *ast.File, ts *ast.TypeSwitchStmt) {
	annotated, ignore := dispatchAnnotation(pass, f, ts)
	if !annotated {
		return
	}

	// Subject expression of the type switch.
	var subject ast.Expr
	switch a := ts.Assign.(type) {
	case *ast.AssignStmt:
		if len(a.Rhs) == 1 {
			if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
				subject = ta.X
			}
		}
	case *ast.ExprStmt:
		if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
			subject = ta.X
		}
	}
	if subject == nil {
		pass.Reportf(ts.Pos(), "//rbft:dispatch switch has no recognisable type-assert subject")
		return
	}
	st := pass.TypesInfo.TypeOf(subject)
	if st == nil {
		return
	}
	iface, ok := st.Underlying().(*types.Interface)
	if !ok {
		pass.Reportf(ts.Pos(), "//rbft:dispatch switch subject is %s, not an interface", st)
		return
	}
	named, ok := st.(*types.Named)
	if !ok {
		pass.Reportf(ts.Pos(), "//rbft:dispatch switch subject must be a named interface, got %s", st)
		return
	}

	implementors := implementorsOf(named.Obj().Pkg(), iface)

	handled := make(map[string]bool)
	for _, clause := range ts.Body.List {
		cc := clause.(*ast.CaseClause)
		for _, e := range cc.List {
			t := pass.TypesInfo.TypeOf(e)
			if t == nil {
				continue
			}
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				handled[n.Obj().Name()] = true
			}
		}
	}

	var missing []string
	for _, name := range implementors {
		if !handled[name] && !ignore[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		pass.Reportf(ts.Pos(), "dispatch switch over %s is missing arms for: %s (add cases or document with ignore=)",
			named.Obj().Name(), strings.Join(missing, ", "))
	}
}

// implementorsOf lists (sorted) the concrete named types in pkg that
// implement iface directly or via pointer receiver.
func implementorsOf(pkg *types.Package, iface *types.Interface) []string {
	if pkg == nil {
		return nil
	}
	var out []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// ---- enum-keyed registry exhaustiveness ----

// checkEnumMaps verifies package-level map composite literals keyed by a
// locally declared integer enum cover every constant of that enum.
func checkEnumMaps(pass *framework.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				cl, ok := v.(*ast.CompositeLit)
				if !ok {
					continue
				}
				checkEnumMapLit(pass, cl)
			}
		}
	}
}

func checkEnumMapLit(pass *framework.Pass, cl *ast.CompositeLit) {
	t := pass.TypesInfo.TypeOf(cl)
	if t == nil {
		return
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return
	}
	keyNamed, ok := m.Key().(*types.Named)
	if !ok || keyNamed.Obj().Pkg() == nil || keyNamed.Obj().Pkg().Path() != pass.Pkg.Path() {
		return
	}
	basic, ok := keyNamed.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return
	}

	// All package constants of the enum type.
	scope := pass.Pkg.Scope()
	var enum []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if types.Identical(c.Type(), keyNamed) {
			enum = append(enum, c)
		}
	}
	if len(enum) == 0 {
		return
	}

	present := make(map[string]bool)
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if tv, ok := pass.TypesInfo.Types[kv.Key]; ok && tv.Value != nil {
			present[tv.Value.ExactString()] = true
		}
	}

	var missing []string
	for _, c := range enum {
		if !present[c.Val().ExactString()] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		pass.Reportf(cl.Pos(), "map keyed by %s is missing entries for: %s",
			keyNamed.Obj().Name(), strings.Join(missing, ", "))
	}
}
