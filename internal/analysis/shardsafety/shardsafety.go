// Package shardsafety statically enforces the sharded engine's isolation
// discipline: mutable state owned by one shard's Engine may only be
// touched cross-shard through Conduit send/receive or the control-conduit
// mesh (DESIGN §6). The conservative-synchronization protocol is only
// sound if every cross-partition interaction pays the conduit's lookahead
// and arrives through the portal event — a direct read or write of another
// shard's state races, and worse, races *deterministically enough* to look
// like a real experimental result.
//
// The analyzer matches the engine's vocabulary by type and function name
// (Conduit, ShardGroup, Shard, Engine, Link, Testbed, ThroughputMonitor),
// so the golden testdata can model the contract with stand-in types; the
// suite scopes it to the packages where those names mean the real thing
// (internal/sim, internal/netsim, internal/testbed). Five rules:
//
//  1. Link.SetRemote may only be called inside a function whose doc
//     comment carries //greenvet:shardboundary: diverting a link's
//     propagation through a conduit is exactly the partition cut, and the
//     cut is built in one reviewed place per topology.
//  2. NewConduit likewise: conduits pin the lookahead graph at
//     construction, so ad-hoc conduits built outside a reviewed boundary
//     function silently change the synchronization schedule.
//  3. A raw Conduit.Send's due time must be anchored at the source
//     shard's own clock: the first argument must have the shape
//     `<src>.Now() + <delay>` (or the call site should use
//     SendAfterDelay). Absolute or foreign-clock timestamps are how LBTS
//     monotonicity breaks.
//  4. Inside the scheduler's own round code — methods of ShardGroup,
//     Shard, Conduit, or portal (the per-shard-pair mailbox a round
//     drains) other than the top-level Run — no new goroutines
//     (`go` statements) and no nested Engine.Run/Engine.RunUntil calls:
//     both would dispatch events past the published LBTS floor.
//     RunBelow, the bounded batch primitive, is the sanctioned way to
//     advance a shard.
//  5. Functions that resolve per-shard engines via ShardGroup.Engine are
//     shard-scoped: the closures they build run as one shard's event
//     callbacks. Inside those closures, touching the fabric-wide
//     ThroughputMonitor or ranging over a Testbed-global slice reads
//     state owned by every shard at once — per-shard index sets
//     (meterIdx[s], senders[s]) are the sanctioned pattern.
//
// Suppress a reviewed exception with
// `//greenvet:allow shardsafety <reason>`.
package shardsafety

import (
	"go/ast"
	"go/token"
	"go/types"

	"greenenvy/internal/analysis"
)

// Analyzer is the shardsafety pass.
var Analyzer = &analysis.Analyzer{
	Name: "shardsafety",
	Doc:  "enforce shard isolation: conduit-only cross-shard traffic, reviewed partition boundaries, LBTS-safe round code",
	Run:  run,
}

// BoundaryDirective marks a reviewed partition-boundary builder when it
// appears on its own line of the function's doc comment: the only place
// rules 1 and 2 permit SetRemote and NewConduit.
const BoundaryDirective = "//greenvet:shardboundary"

// roundTypes are the receiver types whose methods form the scheduler's
// round code (rule 4).
var roundTypes = map[string]bool{"ShardGroup": true, "Shard": true, "Conduit": true, "portal": true}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	boundary := analysis.HasDirective(fd.Doc, BoundaryDirective)
	round := roundMethod(info, fd)
	shardScoped := callsShardEngine(info, fd.Body)

	var funcLitDepth int
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			funcLitDepth++
			ast.Inspect(n.Body, visit)
			funcLitDepth--
			return false
		case *ast.GoStmt:
			if round {
				pass.Reportf(n.Pos(), "round code (%s): spawning a goroutine inside the scheduler's round can dispatch events past the LBTS floor; only ShardGroup.Run owns worker lifecycle", fd.Name.Name)
			}
		case *ast.RangeStmt:
			if shardScoped && funcLitDepth > 0 {
				checkShardScopedRange(pass, fd, n)
			}
		case *ast.SelectorExpr:
			if shardScoped && funcLitDepth > 0 {
				checkMonitorTouch(pass, fd, n)
			}
		case *ast.CallExpr:
			checkCall(pass, fd, n, boundary, round)
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
}

func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, boundary, round bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	recv := recvTypeName(fn)
	switch {
	case fn.Name() == "SetRemote" && recv == "Link":
		if !boundary {
			pass.Reportf(call.Pos(), "Link.SetRemote outside a %s function: diverting propagation through a conduit is the partition cut and must live in a reviewed boundary builder", BoundaryDirective)
		}
	case fn.Name() == "NewConduit" && recv == "":
		if !boundary {
			pass.Reportf(call.Pos(), "NewConduit outside a %s function: conduits pin the lookahead graph and must be built by a reviewed boundary builder", BoundaryDirective)
		}
	case fn.Name() == "Send" && recv == "Conduit":
		if len(call.Args) >= 1 && !anchoredAtNow(call.Args[0]) {
			pass.Reportf(call.Args[0].Pos(), "Conduit.Send due time must be anchored at the source shard's clock (`<src>.Now() + <delay>`, or use SendAfterDelay); a foreign or absolute timestamp breaks LBTS monotonicity")
		}
	case round && recv == "Engine" && (fn.Name() == "Run" || fn.Name() == "RunUntil"):
		pass.Reportf(call.Pos(), "round code (%s): Engine.%s dispatches events past the LBTS floor; use RunBelow with the round's limit", fd.Name.Name, fn.Name())
	}
}

// checkShardScopedRange flags ranging over a Testbed-global slice from a
// closure built in a shard-scoped function.
func checkShardScopedRange(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	sel, ok := ast.Unparen(rs.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if typeName(pass.TypesInfo, sel.X) == "Testbed" {
		pass.Reportf(rs.X.Pos(), "shard-scoped closure (%s): ranging over testbed-global %s reads state owned by other shards; iterate a per-shard index set instead", fd.Name.Name, sel.Sel.Name)
	}
}

// checkMonitorTouch flags any fabric-wide ThroughputMonitor access from a
// closure built in a shard-scoped function.
func checkMonitorTouch(pass *analysis.Pass, fd *ast.FuncDecl, sel *ast.SelectorExpr) {
	info := pass.TypesInfo
	// A monitor-typed selector (tb.Monitor) and a method selector on it
	// (tb.Monitor.Observe) would double-report the same construct; the
	// method arm skips bases the first arm already flags as selectors,
	// and covers the bases it cannot see (monitor-typed locals).
	monitorTyped := typeName(info, sel) == "ThroughputMonitor"
	_, baseIsSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	monitorMethod := recvTypeName(calleeOf(info, sel)) == "ThroughputMonitor" &&
		!(baseIsSel && typeName(info, sel.X) == "ThroughputMonitor")
	if monitorTyped || monitorMethod {
		pass.Reportf(sel.Pos(), "shard-scoped closure (%s): the ThroughputMonitor samples flows fabric-wide and cannot be touched from one shard's callback", fd.Name.Name)
	}
}

// calleeOf resolves the method a selector refers to, if any.
func calleeOf(info *types.Info, sel *ast.SelectorExpr) *types.Func {
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	return fn
}

// anchoredAtNow reports whether e has the shape `<x>.Now() + <y>` (either
// operand order), the only statically safe due-time for a raw Send.
func anchoredAtNow(e ast.Expr) bool {
	b, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || b.Op != token.ADD {
		return false
	}
	return isNowCall(b.X) || isNowCall(b.Y)
}

func isNowCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Now"
}

// roundMethod reports whether fd is a method of one of the scheduler's
// round types, excluding the top-level Run (which legitimately owns the
// worker goroutines).
func roundMethod(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Name.Name == "Run" {
		return false
	}
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	return roundTypes[recvTypeName(fn)]
}

// callsShardEngine reports whether body resolves a per-shard engine via
// ShardGroup.Engine — the marker of a shard-scoped function (rule 5).
func callsShardEngine(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(info, call)
		if fn != nil && fn.Name() == "Engine" && recvTypeName(fn) == "ShardGroup" {
			found = true
		}
		return true
	})
	return found
}

// recvTypeName returns the name of fn's receiver's named type ("" for
// package-level functions), after pointer indirection.
func recvTypeName(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return namedName(sig.Recv().Type())
}

// typeName returns the name of e's named type after pointer indirection,
// or "".
func typeName(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	return namedName(tv.Type)
}

func namedName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Alias:
		return t.Obj().Name()
	}
	return ""
}
