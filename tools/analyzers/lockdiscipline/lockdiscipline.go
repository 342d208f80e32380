// Package lockdiscipline enforces the `// guarded by <mu>` convention
// wherever it is written: struct fields annotated with a guard comment must
// only be accessed by functions that acquire that mutex (on the same
// receiver/base expression), and types that contain a lock must never be
// copied by value.
//
// The check is intentionally function-granular rather than a full lockset
// analysis: a function that touches a guarded field must contain at least
// one `base.mu.Lock()` / `base.mu.RLock()` call (directly or deferred) on
// the same base expression lexically before the access. Exemptions:
//
//   - functions whose name ends in "Locked" (caller-holds-lock convention);
//   - accesses through a value the function itself constructed with a
//     composite literal (initialisation before publication);
//   - explicit suppression: //rbft:ignore lockdiscipline -- <reason>.
//
// A pipeline stage function (pipeblock.Stage: //rbft:verifier, egress, wal,
// exec) gets neither of the first two: no caller of a stage holds a lock for
// it and a stage publishes nothing, so its guarded access is flagged here
// unless it takes the lock — which pipeblock then flags.
//
// The copy check flags value parameters, value results, value receivers,
// plain-assignment copies and range-value copies of any type that
// transitively contains a sync.Mutex, sync.RWMutex, sync.WaitGroup,
// sync.Once or sync.Cond.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"rbft/tools/analyzers/framework"
	"rbft/tools/analyzers/pipeblock"
)

// Analyzer is the lockdiscipline pass. It runs on every package: a guard
// comment means the same wherever it is written.
var Analyzer = &framework.Analyzer{
	Name: "lockdiscipline",
	Doc:  "check `// guarded by mu` field annotations and forbid copying locks by value",
	Run:  run,
}

var guardRE = regexp.MustCompile(`guarded by (\w+)`)

// guardedField identifies one annotated field of one struct type.
type guardedField struct {
	mutex string // name of the guarding mutex field
}

func run(pass *framework.Pass) error {
	guards := collectGuards(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkCopiesInSignature(pass, fd)
			if fd.Body == nil {
				continue
			}
			checkFuncBody(pass, guards, fd)
		}
	}
	return nil
}

// ---- guarded-field discipline ----

// collectGuards scans struct declarations for `guarded by <mu>` comments and
// returns a map from (struct type, field name) to guard info.
func collectGuards(pass *framework.Pass) map[*types.Named]map[string]guardedField {
	guards := make(map[*types.Named]map[string]guardedField)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Defs[ts.Name]
			if !ok {
				return true
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				text := ""
				if field.Doc != nil {
					text += field.Doc.Text()
				}
				if field.Comment != nil {
					text += field.Comment.Text()
				}
				m := guardRE.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				for _, name := range field.Names {
					fm := guards[named]
					if fm == nil {
						fm = make(map[string]guardedField)
						guards[named] = fm
					}
					fm[name.Name] = guardedField{mutex: m[1]}
				}
			}
			return true
		})
	}
	return guards
}

// access is one read/write of a guarded field within a function body.
type access struct {
	pos   token.Pos
	base  string // textual base expression, e.g. "nr" in nr.node
	field string
	mutex string
}

// checkFuncBody verifies every guarded-field access in one function (and its
// closures — lock acquisitions anywhere in the same body count, matching the
// common pattern of a closure locking for itself).
func checkFuncBody(pass *framework.Pass, guards map[*types.Named]map[string]guardedField, fd *ast.FuncDecl) {
	if len(guards) == 0 {
		return
	}
	stage := pipeblock.Stage(fd) != ""
	if strings.HasSuffix(fd.Name.Name, "Locked") && !stage {
		return
	}

	// Base expressions the function constructed itself (composite literals):
	// initialisation before the value is shared needs no lock.
	constructed := make(map[string]bool)
	// mutex acquisitions seen, as "base.mutexName" -> earliest position.
	locked := make(map[string]token.Pos)
	var accesses []access

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if !stage && isCompositeConstruction(rhs) {
					constructed[types.ExprString(n.Lhs[i])] = true
				}
			}
		case *ast.CallExpr:
			if base, mu, kind := lockCall(n); kind != "" {
				key := base + "." + mu
				if p, ok := locked[key]; !ok || n.Pos() < p {
					locked[key] = n.Pos()
				}
			}
		case *ast.SelectorExpr:
			if a, ok := guardedAccess(pass, guards, n); ok {
				accesses = append(accesses, a)
			}
		}
		return true
	})

	hint := "suffix the name with Locked if the caller holds it"
	if stage {
		hint = "no caller holds a lock for a pipeline stage"
	}
	for _, a := range accesses {
		if constructed[a.base] {
			continue
		}
		lockPos, ok := locked[a.base+"."+a.mutex]
		if ok && lockPos < a.pos {
			continue
		}
		if ok {
			pass.Reportf(a.pos, "%s.%s is guarded by %s.%s but accessed before the lock is taken", a.base, a.field, a.base, a.mutex)
			continue
		}
		pass.Reportf(a.pos, "%s.%s is guarded by %s.%s, which this function never locks (%s)", a.base, a.field, a.base, a.mutex, hint)
	}
}

// guardedAccess reports whether sel is base.field where field is guarded in
// base's struct type.
func guardedAccess(pass *framework.Pass, guards map[*types.Named]map[string]guardedField, sel *ast.SelectorExpr) (access, bool) {
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return access{}, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return access{}, false
	}
	fm, ok := guards[named]
	if !ok {
		return access{}, false
	}
	gf, ok := fm[sel.Sel.Name]
	if !ok {
		return access{}, false
	}
	return access{
		pos:   sel.Pos(),
		base:  types.ExprString(sel.X),
		field: sel.Sel.Name,
		mutex: gf.mutex,
	}, true
}

// lockCall matches base.mu.Lock / base.mu.RLock calls and returns the base
// expression text, the mutex field name and the lock kind.
func lockCall(call *ast.CallExpr) (base, mu, kind string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	if sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" {
		return "", "", ""
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	return types.ExprString(inner.X), inner.Sel.Name, sel.Sel.Name
}

func isCompositeConstruction(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := e.X.(*ast.CompositeLit)
			return ok
		}
	}
	return false
}

// ---- lock-by-value discipline ----

// checkCopiesInSignature flags value receivers, parameters and results whose
// types contain a lock, and copy assignments inside the body.
func checkCopiesInSignature(pass *framework.Pass, fd *ast.FuncDecl) {
	report := func(pos token.Pos, what string, t types.Type) {
		pass.Reportf(pos, "%s copies a lock: %s contains a sync primitive; use a pointer", what, t)
	}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			if t := pass.TypesInfo.TypeOf(f.Type); t != nil && containsLock(t) {
				report(f.Pos(), "value receiver", t)
			}
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			if t := pass.TypesInfo.TypeOf(f.Type); t != nil && containsLock(t) {
				report(f.Pos(), "value parameter", t)
			}
		}
	}
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			if t := pass.TypesInfo.TypeOf(f.Type); t != nil && containsLock(t) {
				report(f.Pos(), "value result", t)
			}
		}
	}
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) || isCompositeConstruction(rhs) {
					continue
				}
				if ident, ok := n.Lhs[i].(*ast.Ident); ok && ident.Name == "_" {
					continue // discarded, nothing is copied into a live value
				}
				if t := pass.TypesInfo.TypeOf(rhs); t != nil && containsLock(t) {
					report(n.Pos(), "assignment", t)
				}
			}
		case *ast.RangeStmt:
			if n.Value == nil {
				return true
			}
			if t := pass.TypesInfo.TypeOf(n.Value); t != nil && containsLock(t) {
				report(n.Value.Pos(), "range value", t)
			}
		}
		return true
	})
}

// containsLock reports whether t transitively contains a sync primitive by
// value.
func containsLock(t types.Type) bool {
	return containsLockRec(t, make(map[types.Type]bool))
}

func containsLockRec(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Map", "Pool":
				return true
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLockRec(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLockRec(u.Elem(), seen)
	}
	return false
}
