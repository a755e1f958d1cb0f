package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ReplicaIsolation machine-checks the ownership half of the fork/join
// determinism contract: inside a forkjoin.Do/Map task body, mutable
// state reachable from one task (one cluster replica, one sweep row)
// must never be written into package-level state, into state captured
// from the enclosing function, or into another task's slot. A task owns
// exactly:
//
//   - state it created itself (locals, call results, composite literals);
//   - its task-index projection of a captured root — root[i] where i is
//     the task parameter — which is how index-addressed result slices
//     and per-task replica slots are expressed.
//
// Everything else reachable from the closure is shared: writing through
// it, calling pointer-receiver methods on it, or returning it from a Map
// body races the sibling tasks and makes results depend on the Go
// scheduler. The rule is what lets a fork/join region (today the sweep
// rows; the cluster advances its replicas inline) run its tasks in
// parallel and still promise byte-identical output at every worker
// count.
//
// The analysis is a conservative syntactic taint walk, not an alias
// analysis: locals initialized from a shared chain (without a task-index
// projection) are shared; aliasing laundered through struct copies or
// function calls is out of scope. internal/forkjoin itself is exempt —
// it is the audited implementation the contract is defined against.
type ReplicaIsolation struct{}

func (ReplicaIsolation) Name() string { return "replicaisolation" }

func (ReplicaIsolation) Doc() string {
	return "forbid forked task bodies from writing shared or package-level state; tasks own only their index slot"
}

// Ownership kinds for an expression chain inside a task body.
const (
	ownKind      = iota // fresh, local, or reached through root[taskParam]
	capturedKind        // reachable from a captured root without task projection
	globalKind          // rooted at package-level state
)

// isoCtx is the per-task-literal classification state shared by the
// replicaisolation and mergeorder analyzers.
type isoCtx struct {
	p         *Package
	lit       *ast.FuncLit
	taskParam types.Object          // first parameter of the task body, nil if unnamed
	tainted   map[types.Object]bool // locals aliasing shared state
}

func newIsoCtx(p *Package, lit *ast.FuncLit) *isoCtx {
	c := &isoCtx{p: p, lit: lit, tainted: map[types.Object]bool{}}
	if fields := lit.Type.Params.List; len(fields) > 0 && len(fields[0].Names) > 0 {
		if name := fields[0].Names[0]; name.Name != "_" {
			c.taskParam = p.Info.Defs[name]
		}
	}
	c.propagateTaint()
	return c
}

// litLocal reports whether obj is declared inside the task literal.
func (c *isoCtx) litLocal(obj types.Object) bool {
	return obj != nil && obj.Pos() >= c.lit.Pos() && obj.Pos() < c.lit.End()
}

// isTaskIndex reports whether idx is exactly the task parameter — the
// one projection that transfers ownership of a captured root's slot.
func (c *isoCtx) isTaskIndex(idx ast.Expr) bool {
	if p, ok := idx.(*ast.ParenExpr); ok {
		idx = p.X
	}
	id, ok := idx.(*ast.Ident)
	return ok && c.taskParam != nil && c.p.Info.Uses[id] == c.taskParam
}

// classify resolves an expression chain to its ownership kind and root
// object (nil for fresh state).
func (c *isoCtx) classify(e ast.Expr) (int, types.Object) {
	switch e := e.(type) {
	case *ast.Ident:
		return c.classifyObj(c.p.Info.Uses[e])
	case *ast.SelectorExpr:
		if obj := useOf(c.p, e); obj != nil {
			if v, ok := obj.(*types.Var); ok && !v.IsField() &&
				v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return globalKind, v
			}
		}
		return c.classify(e.X)
	case *ast.IndexExpr:
		k, root := c.classify(e.X)
		if k != ownKind && c.isTaskIndex(e.Index) {
			return ownKind, root
		}
		return k, root
	case *ast.StarExpr:
		return c.classify(e.X)
	case *ast.ParenExpr:
		return c.classify(e.X)
	case *ast.TypeAssertExpr:
		return c.classify(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.classify(e.X)
		}
	case *ast.SliceExpr:
		return c.classify(e.X)
	}
	// Call results, composite and basic literals, conversions: fresh
	// state the task owns.
	return ownKind, nil
}

func (c *isoCtx) classifyObj(obj types.Object) (int, types.Object) {
	v, ok := obj.(*types.Var)
	if !ok {
		// Package names, constants, functions, types: not mutable state.
		return ownKind, nil
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return globalKind, v
	}
	if obj == c.taskParam {
		return ownKind, v
	}
	if c.litLocal(v) {
		if c.tainted[v] {
			return capturedKind, v
		}
		return ownKind, v
	}
	return capturedKind, v
}

// aliasing reports whether values of t alias underlying storage when
// copied — the types a shared read can smuggle write access through.
// Struct copies are treated as non-aliasing (a documented heuristic).
func aliasing(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// propagateTaint walks the task body's assignments in source order,
// marking locals initialized from shared chains (without a task-index
// projection) as shared themselves.
func (c *isoCtx) propagateTaint() {
	ast.Inspect(c.lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := c.p.Info.Defs[id]
			if obj == nil {
				obj = c.p.Info.Uses[id]
			}
			if obj == nil || !c.litLocal(obj) {
				continue
			}
			if kind, _ := c.classify(as.Rhs[i]); kind != ownKind && aliasing(obj.Type()) {
				c.tainted[obj] = true
			}
		}
		return true
	})
}

func (c *isoCtx) describe(kind int, root types.Object) string {
	name := "shared state"
	if root != nil {
		name = fmt.Sprintf("%q", root.Name())
	}
	if kind == globalKind {
		return fmt.Sprintf("package-level %s", name)
	}
	return fmt.Sprintf("captured %s", name)
}

func (ReplicaIsolation) Check(p *Package) []Finding {
	if isForkJoinPkg(p.Path) || p.Info == nil {
		return nil
	}
	var out []Finding
	flag := func(pos token.Pos, msg string) {
		out = append(out, Finding{Pos: p.Fset.Position(pos), Rule: "replicaisolation", Msg: msg})
	}
	for _, file := range p.Files {
		for _, lit := range forkTaskLits(p, file) {
			c := newIsoCtx(p, lit)
			checkWrite := func(pos token.Pos, e ast.Expr, verb string) {
				kind, root := c.classify(e)
				if kind == ownKind {
					return
				}
				flag(pos, fmt.Sprintf(
					"forked task %s %s; a task may write only state it created or its root[i] task-index slot",
					verb, c.describe(kind, root)))
			}
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							if id.Name == "_" || c.p.Info.Defs[id] != nil {
								continue // new binding, handled by taint
							}
						}
						checkWrite(lhs.Pos(), lhs, "writes")
					}
				case *ast.IncDecStmt:
					checkWrite(n.Pos(), n.X, "writes")
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) > 0 {
						if _, builtin := p.Info.Uses[id].(*types.Builtin); builtin &&
							(id.Name == "delete" || id.Name == "copy") {
							checkWrite(n.Pos(), n.Args[0], "mutates (via "+id.Name+")")
						}
						return true
					}
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					selInfo, ok := p.Info.Selections[sel]
					if !ok {
						return true
					}
					fn, ok := selInfo.Obj().(*types.Func)
					if !ok {
						return true
					}
					sig, ok := fn.Type().(*types.Signature)
					if !ok || sig.Recv() == nil {
						return true
					}
					if _, ptr := sig.Recv().Type().(*types.Pointer); !ptr {
						return true
					}
					kind, root := c.classify(sel.X)
					if kind != ownKind {
						flag(n.Pos(), fmt.Sprintf(
							"forked task calls pointer-receiver method %q on %s; mutate only task-owned state",
							fn.Name(), c.describe(kind, root)))
					}
				case *ast.ReturnStmt:
					for _, res := range n.Results {
						kind, root := c.classify(res)
						if kind != ownKind && aliasing(typeOf(p, res)) {
							flag(res.Pos(), fmt.Sprintf(
								"forked task returns %s; results must be freshly built per task",
								c.describe(kind, root)))
						}
					}
				}
				return true
			})
		}
	}
	return out
}
