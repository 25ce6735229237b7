package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder enforces the engine's two acquisition-order invariants.
//
// Ranked mutexes: the fixed tier order is
//
//	object latch (10) → stripe (20) → owner shard (30) → waits registry (40) → pubMu (50)
//
// and never two locks of the same tier at once. Within each function the
// analyzer scans acquisitions in source order and flags any Lock of a
// tier at or below one still held (a deferred Unlock holds to the end of
// the function; a return releases everything). The ordercheck build tag
// is the runtime half of the same invariant.
//
// Shard gates: raw Router gate acquisitions (LockGate/RLockGate/TryGate/
// TryRGate) are confined to the lockGateCtx/rLockGateCtx helpers, and a
// function calling those helpers more than once must do so in directory
// order — in a loop over a sorted shard set, or guarded by an
// ascending-order or emptiness comparison.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "in internal/lock and internal/engine, ranked mutexes must be " +
		"acquired in tier order (object latch → stripe → owner shard → " +
		"waits registry → pubMu, never two of one tier), raw gate " +
		"acquisition stays inside lockGateCtx/rLockGateCtx, and repeated " +
		"gate-helper calls must follow ascending shard order",
	Run: runLockOrder,
}

// rankedLock is one tier of the documented lock order.
type rankedLock struct {
	rank  int
	label string
}

// mutexRanks maps (declaring type, mutex field) to its tier.
var mutexRanks = map[[2]string]rankedLock{
	{"Object", "mu"}:       {10, "object latch"},
	{"stripe", "mu"}:       {20, "lock-table stripe"},
	{"ownerShard", "mu"}:   {30, "owner shard"},
	{"waitRegistry", "mu"}: {40, "waits-for registry"},
	{"Engine", "pubMu"}:    {50, "publication watermark"},
}

// gateAcquire are the Router methods that take a shard gate.
var gateAcquire = map[string]bool{
	"LockGate": true, "RLockGate": true, "TryGate": true, "TryRGate": true,
}

// gateHelpers are the blessed ctx-aware gate acquisition wrappers.
var gateHelpers = map[string]bool{
	"lockGateCtx": true, "rLockGateCtx": true,
}

func runLockOrder(pass *Pass) error {
	if !pathIs(pass.Pkg, "internal/lock", "internal/engine") {
		return nil
	}
	for _, f := range pass.Files() {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkLockSequence(pass, fd.Body)
			}
		}
	}
	if pathIs(pass.Pkg, "internal/engine") {
		checkGateDiscipline(pass)
	}
	return nil
}

// heldLock is one acquisition still live during the in-order scan.
type heldLock struct {
	key  string
	tier rankedLock
	pos  token.Pos
}

// checkLockSequence scans one function body in source order tracking
// ranked acquisitions. Function literals are separate goroutine-shaped
// scopes and get their own scan.
func checkLockSequence(pass *Pass, body *ast.BlockStmt) {
	var held []heldLock
	var nested []*ast.BlockStmt
	release := func(key string) {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].key == key {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			nested = append(nested, n.Body)
			return false
		case *ast.ReturnStmt:
			// Every non-deferred path unlocks before returning; clearing
			// here keeps branch-local critical sections from leaking into
			// the scan of later statements.
			held = held[:0]
		case *ast.DeferStmt:
			// A deferred Unlock holds its lock to the end of the
			// function (any later same-or-lower acquisition is still a
			// violation), so don't let the scan see it as a release.
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				nested = append(nested, fl.Body)
			}
			return false
		case *ast.CallExpr:
			key, tier, kind := rankedLockCall(pass, n)
			if key == "" {
				return true
			}
			switch kind {
			case "Lock", "TryLock":
				for _, h := range held {
					if h.tier.rank >= tier.rank {
						pass.Reportf(n.Pos(),
							"acquires %s (%s, rank %d) while holding %s (%s, rank %d): lock order is object latch(10) → stripe(20) → owner shard(30) → waits registry(40) → pubMu(50), never two of one tier",
							key, tier.label, tier.rank, h.key, h.tier.label, h.tier.rank)
					}
				}
				held = append(held, heldLock{key: key, tier: tier, pos: n.Pos()})
			case "Unlock":
				release(key)
			}
		}
		return true
	})
	for _, b := range nested {
		checkLockSequence(pass, b)
	}
}

// rankedLockCall decodes a call of the form X.f.Lock/TryLock/Unlock()
// where (type of X, f) is a ranked mutex. It returns the held-lock key
// (the rendered X.f expression), the tier, and the method kind; key is
// "" for anything else.
func rankedLockCall(pass *Pass, call *ast.CallExpr) (string, rankedLock, string) {
	outer, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", rankedLock{}, ""
	}
	kind := outer.Sel.Name
	if kind != "Lock" && kind != "TryLock" && kind != "Unlock" {
		return "", rankedLock{}, ""
	}
	inner, ok := ast.Unparen(outer.X).(*ast.SelectorExpr)
	if !ok {
		return "", rankedLock{}, ""
	}
	selection := pass.Pkg.Info.Selections[inner]
	if selection == nil || selection.Kind() != types.FieldVal {
		return "", rankedLock{}, ""
	}
	tier, ok := mutexRanks[[2]string{recvTypeName(selection.Recv()), inner.Sel.Name}]
	if !ok {
		return "", rankedLock{}, ""
	}
	return types.ExprString(inner), tier, kind
}

// checkGateDiscipline enforces the two gate rules: raw acquisition only
// inside the helpers, and helper call sites ordered when repeated.
func checkGateDiscipline(pass *Pass) {
	type helperSite struct {
		call  *ast.CallExpr
		name  string
		stack []ast.Node
	}
	for _, f := range pass.Files() {
		sitesByFunc := make(map[string][]helperSite)
		var funcOrder []string
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			fn := enclosingFuncName(stack)
			if gateAcquire[name] {
				if _, isMethod := ast.Unparen(call.Fun).(*ast.SelectorExpr); isMethod && !gateHelpers[fn] {
					pass.Reportf(call.Pos(),
						"raw gate acquisition %s outside lockGateCtx/rLockGateCtx: gates must be taken through the ctx-aware helpers", name)
				}
			}
			if gateHelpers[name] && !gateHelpers[fn] {
				if _, seen := sitesByFunc[fn]; !seen {
					funcOrder = append(funcOrder, fn)
				}
				sitesByFunc[fn] = append(sitesByFunc[fn],
					helperSite{call: call, name: name, stack: append([]ast.Node(nil), stack...)})
			}
			return true
		})
		for _, fn := range funcOrder {
			sites := sitesByFunc[fn]
			if len(sites) < 2 {
				continue // a sole acquisition cannot be out of order
			}
			for _, s := range sites {
				if gateSiteOrdered(s.stack) {
					continue
				}
				pass.Reportf(s.call.Pos(),
					"%s called without ordering discipline in a multi-gate function: acquire gates in ascending shard order (loop over a sorted set, or guard with an ascending/emptiness comparison)", s.name)
			}
		}
	}
}

// gateSiteOrdered reports whether a gate-helper call site carries
// evidence of directory-order discipline: an enclosing loop (iterating a
// sorted shard set), or an enclosing if/case guarded by an ascending
// (>, >=) or emptiness (== 0) comparison.
func gateSiteOrdered(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.IfStmt:
			if orderGuardExpr(n.Cond) {
				return true
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if orderGuardExpr(e) {
					return true
				}
			}
		case *ast.FuncDecl:
			return false
		}
	}
	return false
}

// orderGuardExpr reports whether e contains an ascending or emptiness
// comparison.
func orderGuardExpr(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.GTR, token.GEQ:
			found = true
		case token.EQL:
			if isZeroLit(be.X) || isZeroLit(be.Y) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isZeroLit(e ast.Expr) bool {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && bl.Kind == token.INT && bl.Value == "0"
}
