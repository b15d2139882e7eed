package orcvet

import (
	"go/ast"
	"go/types"
	"strings"
)

// model resolves the repository's reclamation API surface against one
// package's type information: which types are handles, Ptrs, and
// arena-managed nodes, and what role each callee plays in the
// protection protocol.
type model struct {
	pass *Pass
	// nodeTypes are the named types this package manages through an
	// arena.Arena[T] / core.Domain[T] instantiation — the T whose *T
	// is a "raw node pointer".
	nodeTypes map[*types.Named]bool
}

const (
	arenaPath = "repro/internal/arena"
	corePath  = "repro/internal/core"
)

// callRole classifies a callee in the protection protocol.
type callRole int

const (
	roleNone callRole = iota

	// Dereference of a handle: arena Get/Header/HdrA, Domain.Get (arena
	// TryGet and Domain.Peek, the speculative reads, are exempt).
	roleDeref

	// Protection sources. roleProtectArg protects an argument handle in
	// place (Scheme.Protect); roleProtectRet returns a protected handle
	// (GetProtected, LoadScratch, Exchange); rolePtrFill fills a *Ptr
	// argument (Domain.Load, Make, AdoptScratch, CopyPtr).
	roleProtectArg
	roleProtectRet
	rolePtrFill

	// Domain.SwapPtr: two *Ptr arguments exchange their protections.
	rolePtrSwap

	// Allocation: returns a fresh, unpublished handle.
	roleAlloc

	// Raw shared load: returns a handle nothing protects
	// (core.Atomic.Raw and Atomic.Peek; atomic.Uint64.Load is caught at
	// the conversion).
	roleRawLoad

	// Protection drops.
	roleClear    // Scheme.Clear(tid, idx)
	roleClearAll // Scheme.ClearAll(tid)
	rolePtrDrop  // Domain.Release / Domain.SetNil on a *Ptr

	// Reclamation handoff and the CAS that justifies it.
	roleRetire // Scheme.Retire(tid, h)
	roleFree   // arena Free/FreeT (alloc rollback or scheme free path)
	roleCAS    // any CompareAndSwap-shaped call
)

func newModel(pass *Pass) *model {
	m := &model{pass: pass, nodeTypes: map[*types.Named]bool{}}
	// Every generic instantiation whose origin lives in internal/arena
	// or internal/core contributes its type arguments: those are the
	// node types this package stores in arenas.
	for id, inst := range pass.Info.Instances {
		obj := pass.Info.Uses[id]
		if p := pkgPathOf(obj); p != arenaPath && p != corePath {
			continue
		}
		targs := inst.TypeArgs
		if targs == nil {
			continue
		}
		for i := 0; i < targs.Len(); i++ {
			if n, ok := dealias(targs.At(i)).(*types.Named); ok {
				m.nodeTypes[n] = true
			}
		}
	}
	return m
}

func dealias(t types.Type) types.Type { return types.Unalias(t) }

func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isHandle reports whether t is arena.Handle (possibly via alias).
func isHandle(t types.Type) bool {
	n, ok := dealias(t).(*types.Named)
	return ok && n.Obj().Name() == "Handle" && pkgPathOf(n.Obj()) == arenaPath
}

// isPtr reports whether t is core.Ptr (by value).
func isPtr(t types.Type) bool {
	n, ok := dealias(t).(*types.Named)
	return ok && n.Obj().Name() == "Ptr" && pkgPathOf(n.Obj()) == corePath
}

// isPtrPointer reports whether t is *core.Ptr.
func isPtrPointer(t types.Type) bool {
	p, ok := dealias(t).(*types.Pointer)
	return ok && isPtr(p.Elem())
}

// isNodePtr reports whether t is a raw pointer to an arena-managed node
// of this package.
func (m *model) isNodePtr(t types.Type) bool {
	p, ok := dealias(t).(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := dealias(p.Elem()).(*types.Named)
	return ok && m.nodeTypes[n]
}

// calleeFunc resolves the *types.Func a call invokes (through method
// values, instantiations, and interfaces), or nil.
func (m *model) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := m.pass.Info.Uses[fn].(*types.Func); ok {
			return origin(f)
		}
	case *ast.SelectorExpr:
		if sel, ok := m.pass.Info.Selections[fn]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return origin(f)
			}
		}
		if f, ok := m.pass.Info.Uses[fn.Sel].(*types.Func); ok {
			return origin(f)
		}
	case *ast.IndexExpr: // explicit instantiation: f[T](...)
		if id, ok := ast.Unparen(fn.X).(*ast.Ident); ok {
			if f, ok := m.pass.Info.Uses[id].(*types.Func); ok {
				return origin(f)
			}
		}
	}
	return nil
}

func origin(f *types.Func) *types.Func {
	if o := f.Origin(); o != nil {
		return o
	}
	return f
}

// sigHasHandle reports whether any parameter of f is handle-typed.
func sigHasHandle(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isHandle(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// roleOf classifies a resolved callee. Interface methods (the
// reclaim.Scheme surface) are matched by name and signature shape, so
// both `s.GetProtected(...)` through the interface and a concrete
// scheme receiver classify identically.
func (m *model) roleOf(f *types.Func) callRole {
	if f == nil {
		return roleNone
	}
	name := f.Name()
	sig, _ := f.Type().(*types.Signature)
	path := pkgPathOf(f)

	switch path {
	case arenaPath:
		switch name {
		case "Get", "Header", "HdrA":
			return roleDeref
		case "TryGet":
			// The sanctioned speculative read: TryGet validates the
			// generation and fails closed on a stale handle, so it is
			// exempt from protect-before-deref.
			return roleNone
		case "Alloc", "AllocT":
			return roleAlloc
		case "Free", "FreeT":
			return roleFree
		}
	case corePath:
		switch name {
		case "Get":
			return roleDeref
		case "Load", "Make", "AdoptScratch", "CopyPtr":
			return rolePtrFill
		case "SwapPtr":
			return rolePtrSwap
		case "LoadScratch", "Exchange":
			return roleProtectRet
		case "Release", "SetNil":
			return rolePtrDrop
		case "Raw":
			return roleRawLoad
		case "Peek":
			// Atomic.Peek is Raw as a plain load: what it returns is
			// protected by nothing. Domain.Peek is TryGet: the
			// speculative read, exempt like it.
			if sig != nil && sig.Params().Len() == 0 {
				return roleRawLoad
			}
			return roleNone
		case "CAS":
			return roleCAS
		case "H":
			// Ptr.H is handled structurally (state of the receiver).
			return roleNone
		}
	}

	// Scheme-shaped methods, by name + signature, wherever they are
	// declared (the reclaim.Scheme interface, concrete schemes, or a
	// structure embedding one).
	if sig != nil && sig.Recv() != nil {
		switch name {
		case "GetProtected":
			if sig.Results().Len() > 0 && isHandle(sig.Results().At(0).Type()) {
				return roleProtectRet
			}
		case "Protect":
			if sigHasHandle(sig) {
				return roleProtectArg
			}
		case "Retire":
			if sigHasHandle(sig) {
				return roleRetire
			}
		case "Clear":
			if sig.Params().Len() == 2 {
				return roleClear
			}
		case "ClearAll":
			if sig.Params().Len() == 1 {
				return roleClearAll
			}
		}
	}

	// Anything CompareAndSwap-shaped counts as a CAS for the
	// retire-after-unlink justification: sync/atomic's CompareAndSwap,
	// Domain.CAS (above), or a package-local wrapper named *CAS*.
	if strings.Contains(name, "CompareAndSwap") || name == "CAS" ||
		strings.Contains(name, "compareAndSwap") || name == "cas" {
		return roleCAS
	}
	return roleNone
}

// isExchange reports whether f atomically exchanges a shared slot and
// returns the old value — which is therefore unlinked by construction
// and may be retired without a separate CAS.
func (m *model) isExchange(f *types.Func) bool {
	if f == nil {
		return false
	}
	switch pkgPathOf(f) {
	case corePath:
		return f.Name() == "Exchange"
	case "sync/atomic":
		return f.Name() == "Swap"
	}
	return false
}

// isAtomicLoad reports whether call is a .Load() on a sync/atomic value
// (the raw shared read rule protect exists to guard).
func (m *model) isAtomicLoad(call *ast.CallExpr) bool {
	f := m.calleeFunc(call)
	if f == nil || f.Name() != "Load" {
		return false
	}
	return pkgPathOf(f) == "sync/atomic"
}
