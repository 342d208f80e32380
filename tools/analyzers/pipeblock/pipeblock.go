// Package pipeblock owns the pipeline's stage annotations — //rbft:verifier
// (the concurrent preverify stage, docs/PIPELINE.md), //rbft:egress
// (per-peer send workers, docs/EGRESS.md), //rbft:wal (the fsync and
// segment-I/O path, docs/DURABILITY.md) and //rbft:exec (the wave shards of
// the parallel execution scheduler, docs/EXECUTION.md) — and checks that an
// annotated function cannot stall on anything but the work it exists to do:
//
//   - a bare channel send, outside a select with default: it blocks
//     whenever the buffer is full (at once, on an unbuffered channel, until
//     a receiver is ready), and the stage's stall propagates backward
//     through the pipeline;
//
//   - a select containing a send case but no default (and the degenerate
//     empty select{}): without default the select parks until some case can
//     proceed, which on a send case means until a consumer shows up;
//
//   - calls that exist to block: time.Sleep, sync.WaitGroup.Wait,
//     sync.Cond.Wait;
//
//   - a Lock, RLock, Unlock or RUnlock call on any receiver (a field, a
//     local, a mutex parameter): a verifier that takes a lock reintroduces
//     crypto-under-mutex, an fsync under a mutex stalls every appender, an
//     egress worker holding one hands a wedged peer's stall back to the
//     apply loop, and a wave shard holding one serializes its wave;
//
//   - calls into same-package functions that acquire a mutex (directly
//     containing a .Lock()/.RLock() call): the lock wait happens inside the
//     callee.
//
// A stage function that touches `guarded by` state is lockdiscipline's: it
// holds stage functions (Stage) to its general rule without the …Locked and
// constructor exemptions, so the access is flagged there or the lock it
// takes is flagged here.
//
// Receive-only selects stay silent: parking on empty ingress (the egress
// worker waiting for its queue, the verifier draining its work channel) is
// a stage's idle state, not a stall. Deliberate blocking — the egress
// worker's WaitDurable on the durability horizon is the canonical case —
// is either invisible to these rules (a cross-package call) or suppressed
// inline: //rbft:ignore pipeblock -- <reason>.
package pipeblock

import (
	"go/ast"
	"go/types"
	"strings"

	"rbft/tools/analyzers/framework"
)

// stages are the annotations pipeblock owns, one per pipeline stage.
var stages = []string{"verifier", "egress", "wal", "exec"}

// Analyzer is the pipeblock pass. It runs on every package: a stage
// annotation means the same wherever it is written.
var Analyzer = &framework.Analyzer{
	Name:        "pipeblock",
	Doc:         "forbid potentially-blocking operations (bare sends, default-less send selects, sleeps, mutex calls, lock-taking calls) in //rbft:verifier, //rbft:egress, //rbft:wal and //rbft:exec functions",
	Run:         run,
	Annotations: stages,
}

// Stage returns the stage annotation fd carries ("rbft:egress"), or ""
// when it carries none.
func Stage(fd *ast.FuncDecl) string {
	if fd.Doc == nil {
		return ""
	}
	for _, c := range fd.Doc.List {
		for _, s := range stages {
			if strings.HasPrefix(c.Text, "//rbft:"+s) {
				return "rbft:" + s
			}
		}
	}
	return ""
}

func run(pass *framework.Pass) error {
	lockTakers := collectLockTakers(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if stage := Stage(fd); stage != "" {
				checkBody(pass, lockTakers, fd, stage)
			}
		}
	}
	return nil
}

// collectLockTakers returns the package's functions whose bodies acquire a
// mutex (contain a .Lock() or .RLock() call). A hot-path function calling
// one of them waits for the lock inside the callee.
func collectLockTakers(pass *framework.Pass) map[*types.Func]bool {
	takers := make(map[*types.Func]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			acquires := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
						acquires = true
					}
				}
				return !acquires
			})
			if !acquires {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				takers[fn] = true
			}
		}
	}
	return takers
}

func checkBody(pass *framework.Pass, lockTakers map[*types.Func]bool, fd *ast.FuncDecl, stage string) {
	// selectComms collects send statements that are a select case's comm:
	// the select rule owns those, the bare-send rule must skip them.
	selectComms := make(map[ast.Stmt]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cl := range sel.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
				selectComms[cc.Comm] = true
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if selectComms[n] {
				return true
			}
			pass.Reportf(n.Pos(), "bare channel send in %s function: the send blocks whenever the buffer is full (until a receiver is ready, if it has none); use a select with default (drop/fallback) on the hot path", stage)
		case *ast.SelectStmt:
			checkSelect(pass, n, stage)
		case *ast.CallExpr:
			checkCall(pass, lockTakers, n, stage)
		}
		return true
	})
}

// checkSelect flags the select shapes that park a hot-path goroutine on a
// consumer: empty select{} and a send case without a default escape hatch.
func checkSelect(pass *framework.Pass, sel *ast.SelectStmt, stage string) {
	if len(sel.Body.List) == 0 {
		pass.Reportf(sel.Pos(), "empty select in %s function blocks forever", stage)
		return
	}
	hasDefault, hasSend := false, false
	for _, cl := range sel.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			hasDefault = true
			continue
		}
		if _, ok := cc.Comm.(*ast.SendStmt); ok {
			hasSend = true
		}
	}
	if hasSend && !hasDefault {
		pass.Reportf(sel.Pos(), "select with a send case and no default in %s function: the select parks until a consumer is ready; add a default (drop/fallback) on the hot path", stage)
	}
}

// checkCall flags mutex calls, the calls that exist to block, and
// same-package calls into lock-taking functions.
func checkCall(pass *framework.Pass, lockTakers map[*types.Func]bool, call *ast.CallExpr, stage string) {
	var ident *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		ident = fun
	case *ast.SelectorExpr:
		ident = fun.Sel
		switch {
		case fun.Sel.Name == "Lock" || fun.Sel.Name == "RLock" || fun.Sel.Name == "Unlock" || fun.Sel.Name == "RUnlock":
			pass.Reportf(call.Pos(), "%s in %s function: a pipeline stage must not take or release a mutex; hand it what it needs in its work item", types.ExprString(fun), stage)
			return
		case blockingStdCall(pass, fun):
			pass.Reportf(call.Pos(), "%s in %s function: a pipeline stage must not block on time or goroutine rendezvous", types.ExprString(fun), stage)
			return
		}
	default:
		return
	}
	fn, ok := pass.TypesInfo.Uses[ident].(*types.Func)
	if !ok {
		return
	}
	if lockTakers[fn] {
		pass.Reportf(call.Pos(), "call to %s in %s function: the callee acquires a mutex, so the lock wait happens on the hot path", fn.Name(), stage)
	}
}

// blockingStdCall matches time.Sleep and the sync package's Wait methods
// (WaitGroup.Wait, Cond.Wait).
func blockingStdCall(pass *framework.Pass, sel *ast.SelectorExpr) bool {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "time":
		return fn.Name() == "Sleep"
	case "sync":
		return fn.Name() == "Wait"
	}
	return false
}
