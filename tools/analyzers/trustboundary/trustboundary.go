// Package trustboundary enforces the ingress trust boundary of the
// protocol pipeline (docs/PIPELINE.md): bytes off the wire become a
// message.Message via message.Decode, but a decoded message is *unverified*
// — its signature, MAC, and shape have not been checked — until it has
// passed through message.Preverifier and come back wrapped in a
// message.Verified. Protocol state transitions, WAL records, and emitted
// Output must only ever be computed from verified input; a decoded-but-
// unverified value that reaches any of them is a Byzantine injection point
// (a forged PRE-PREPARE that mutates the log, a fabricated reply that
// settles a client request).
//
// The analyzer taint-tracks, per function body, every value originating
// from a message.Decode call (the framework's flow-insensitive dataflow
// layer resolves copies, field selections, type switches, and conversions)
// and reports when a tainted value reaches one of the trust sinks:
//
//   - assignment into a struct field annotated `// guarded by <mu>` —
//     guarded fields are the protocol state the apply loop trusts;
//
//   - a wal.Record composite literal or an argument to a wal Append method
//     — once a record is durable it will be replayed as truth on recovery;
//
//   - an Output composite literal or a field write into an Output value —
//     Output is what the node tells the rest of the cluster and its
//     clients.
//
// Independent of taint, constructing a message.Verified composite literal
// anywhere outside the message package is reported: Verified is the
// preverifier's certificate, and hand-forging one launders an unverified
// message into the trusted half of the pipeline.
//
// The function boundary is the contract: parameters are treated as clean
// because the caller's body is analyzed separately, so the verify-then-hand-
// off idiom (runtime's verifyLoop passing *message.Verified to the apply
// loop) stays silent, while a function that both decodes and applies is
// exactly the hazard this analyzer exists to catch. Intended exceptions are
// suppressed inline: //rbft:ignore trustboundary -- <reason>.
package trustboundary

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"rbft/tools/analyzers/framework"
)

// Analyzer is the trustboundary pass.
var Analyzer = &framework.Analyzer{
	Name:  "trustboundary",
	Doc:   "taint-track decoded-but-unverified messages and forbid flows into guarded state, WAL records, or Output before preverification",
	Scope: inScope,
	Run:   run,
}

// scopedPackages sit above the trust boundary: they consume decoded
// messages and own protocol state. internal/message itself is exempt — the
// preverifier is the one place allowed to turn unverified bytes into
// Verified — as is internal/wal, whose record codec legitimately
// reconstructs Records from raw segment bytes during recovery.
var scopedPackages = []string{
	"rbft/internal/runtime",
	"rbft/internal/core",
	"rbft/internal/pbft",
	"rbft/internal/client",
	"rbft/internal/monitor",
	"rbft/internal/sim",
	"rbft/internal/harness",
	"rbft/internal/baseline",
}

func inScope(pkgPath string) bool {
	for _, p := range scopedPackages {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

var guardRE = regexp.MustCompile(`guarded by (\w+)`)

func run(pass *framework.Pass) error {
	guarded := collectGuardedFields(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, guarded, fd)
		}
	}
	return nil
}

// collectGuardedFields returns the field objects of this package annotated
// `// guarded by <mu>` — the same convention lockdiscipline enforces
// locking for; here the fields mark trusted protocol state.
func collectGuardedFields(pass *framework.Pass) map[types.Object]bool {
	guarded := make(map[types.Object]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
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
				if !guardRE.MatchString(text) {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guarded[obj] = true
					}
				}
			}
			return true
		})
	}
	return guarded
}

// taintConfig wires the framework taint engine to this analyzer's boundary:
// sources are message.Decode calls, sanitizers are the Preverify* entry
// points (ordinary calls never propagate taint, so the sanitizer is belt
// and braces for when a Preverify result is built in the same expression).
func taintConfig(pass *framework.Pass) framework.TaintConfig {
	return framework.TaintConfig{
		Source:    func(call *ast.CallExpr) bool { return isDecodeCall(pass, call) },
		Sanitizer: func(call *ast.CallExpr) bool { return isPreverifyCall(call) },
	}
}

// isDecodeCall matches a call to a package-level function named Decode
// declared in a package whose base name is "message". Resolving through the
// type checker keeps method calls like (*json.Decoder).Decode out.
func isDecodeCall(pass *framework.Pass, call *ast.CallExpr) bool {
	var ident *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		ident = fun
	case *ast.SelectorExpr:
		ident = fun.Sel
	default:
		return false
	}
	fn, ok := pass.TypesInfo.Uses[ident].(*types.Func)
	if !ok || fn.Name() != "Decode" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Name() == "message"
}

// isPreverifyCall matches the preverifier entry points by name prefix:
// PreverifyClientFrame and PreverifyNodeFrame.
func isPreverifyCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return strings.HasPrefix(fun.Name, "Preverify")
	case *ast.SelectorExpr:
		return strings.HasPrefix(fun.Sel.Name, "Preverify")
	}
	return false
}

// namedFrom reports whether t (through pointers) is a named type with the
// given type name declared in a package with the given base name.
func namedFrom(t types.Type, typeName, pkgName string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != typeName {
		return false
	}
	return obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

func checkFunc(pass *framework.Pass, guarded map[types.Object]bool, fd *ast.FuncDecl) {
	du := framework.NewDefUse(pass.TypesInfo, fd.Body)
	taint := framework.NewTaint(du, taintConfig(pass))

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, guarded, taint, n)
		case *ast.CompositeLit:
			checkCompositeLit(pass, taint, n)
		case *ast.CallExpr:
			checkAppendCall(pass, taint, n)
		}
		return true
	})
}

// checkAssign reports tainted right-hand sides flowing into guarded fields
// or into fields of an Output value.
func checkAssign(pass *framework.Pass, guarded map[types.Object]bool, taint *framework.Taint, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		rhs := as.Rhs[0]
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		}
		if !taint.ExprTainted(rhs) {
			continue
		}
		if obj := pass.TypesInfo.Uses[sel.Sel]; obj != nil && guarded[obj] {
			pass.Reportf(as.Pos(), "unverified message data assigned to guarded field %s: values from message.Decode must pass the preverifier before reaching protocol state", sel.Sel.Name)
			continue
		}
		if baseT := pass.TypesInfo.TypeOf(sel.X); namedFrom(baseT, "Output", "core") {
			pass.Reportf(as.Pos(), "unverified message data written into Output field %s: Output must be computed from verified input only", sel.Sel.Name)
		}
	}
}

// checkCompositeLit reports tainted wal.Record and Output literals, and any
// message.Verified literal at all (forging the preverifier's certificate).
func checkCompositeLit(pass *framework.Pass, taint *framework.Taint, lit *ast.CompositeLit) {
	t := pass.TypesInfo.TypeOf(lit)
	switch {
	case namedFrom(t, "Verified", "message"):
		pass.Reportf(lit.Pos(), "message.Verified constructed outside the message package: Verified is the preverifier's certificate and must only come from Preverify*")
	case namedFrom(t, "Record", "wal"):
		if litTainted(taint, lit) {
			pass.Reportf(lit.Pos(), "unverified message data in wal.Record: durable records are replayed as truth on recovery and must be built from verified input")
		}
	case namedFrom(t, "Output", "core"):
		if litTainted(taint, lit) {
			pass.Reportf(lit.Pos(), "unverified message data in Output: Output must be computed from verified input only")
		}
	}
}

func litTainted(taint *framework.Taint, lit *ast.CompositeLit) bool {
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			el = kv.Value
		}
		if taint.ExprTainted(el) {
			return true
		}
	}
	return false
}

// checkAppendCall reports tainted arguments to an Append method on a wal
// type (Log.Append is the durability sink).
func checkAppendCall(pass *framework.Pass, taint *framework.Taint, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Append" {
		return
	}
	recvT := pass.TypesInfo.TypeOf(sel.X)
	if recvT == nil {
		return
	}
	if ptr, ok := recvT.(*types.Pointer); ok {
		recvT = ptr.Elem()
	}
	named, ok := recvT.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Name() != "wal" {
		return
	}
	for _, arg := range call.Args {
		if taint.ExprTainted(arg) {
			pass.Reportf(call.Pos(), "unverified message data appended to the WAL: durable records must be built from verified input")
			return
		}
	}
}
