// Package lockorder enforces the documented lock hierarchy of the
// concurrent serving paths. Two hierarchies exist (see session.go and
// store.go):
//
//	session: topoMu < batchMu < locks[k] (ascending k) < feedMu < rngMu
//	store:   SessionStore.mu < liveSession.walMu
//
// A goroutine acquiring a lower-level lock while holding a higher one
// can deadlock against a goroutine doing the reverse — a bug class that
// no amount of testing reliably surfaces, because it needs the losing
// interleaving. The analyzer also enforces that per-component locks
// (Session.locks[k]) are acquired only inside Session's own methods: the ascending-order discipline for
// multi-lock paths lives in those helpers (lockAll, applyGroup,
// rankComponent, …), and an outside acquisition cannot be proven to
// respect it.
//
// The check is intraprocedural and syntactic: within one function body
// it tracks Lock/RLock acquisitions of the known mutex fields in source
// order, releases on explicit (non-deferred) Unlock/RUnlock, and flags
// an acquisition below the highest level currently held in the same
// hierarchy. Function literals are scanned as their own bodies — a
// spawned goroutine does not inherit its parent's locks. Deferred
// unlocks are ignored (the lock is held to the end of the body, which
// is exactly what the scan assumes).
package lockorder

import (
	"go/ast"
	"go/constant"
	"go/types"

	"schemanet/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "enforces the Session lock hierarchy (topoMu < batchMu < " +
		"component locks ascending < feedMu < rngMu), the store hierarchy " +
		"(SessionStore.mu < liveSession.walMu), and that component locks are " +
		"acquired only inside Session methods",
	Match: func(pkgPath string) bool { return pkgPath == "schemanet" },
	Run:   run,
}

// lockClass places one known mutex field in its hierarchy.
type lockClass struct {
	hier  string
	level int
	slice bool // a []sync.Mutex indexed by component
	order string
}

const (
	sessionOrder = "topoMu < batchMu < locks[k] ascending < feedMu < rngMu"
	storeOrder   = "SessionStore.mu < liveSession.walMu"
)

// classes maps (owner type, field) to its place in the hierarchy. The
// table is the machine-readable form of the lock-order comments in
// session.go and store.go; a new mutex field must be added here (or
// the analyzer will simply not track it).
var classes = map[[2]string]lockClass{
	{"Session", "topoMu"}:    {"session", 0, false, sessionOrder},
	{"Session", "batchMu"}:   {"session", 1, false, sessionOrder},
	{"Session", "locks"}:     {"session", 2, true, sessionOrder},
	{"Session", "feedMu"}:    {"session", 3, false, sessionOrder},
	{"Session", "rngMu"}:     {"session", 4, false, sessionOrder},
	{"SessionStore", "mu"}:   {"store", 0, false, storeOrder},
	{"liveSession", "walMu"}: {"store", 1, false, storeOrder},
}

// componentOwner is the only type whose methods may touch the
// per-component lock slice.
const componentOwner = "Session"

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzeFunc(pass, recvTypeName(fd), fd.Body)
		}
	}
	return nil
}

// recvTypeName returns the receiver's named type ("" for plain
// functions).
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// analyzeFunc scans one body linearly, then scans each directly nested
// function literal as an independent body under the same receiver
// context (a literal inside a Session method is still "inside
// the session's methods" for the component-lock rule, but holds no
// locks of its own at entry).
func analyzeFunc(pass *analysis.Pass, recv string, body *ast.BlockStmt) {
	sc := &scanner{pass: pass, recv: recv}
	sc.stmts(body.List)
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, fl)
			return false
		}
		return true
	})
	for _, fl := range lits {
		analyzeFunc(pass, recv, fl.Body)
	}
}

// heldLock is one acquisition the scan believes is still held.
type heldLock struct {
	class   lockClass
	owner   string
	field   string
	compIdx int64 // constant component index, or -1
}

func (h heldLock) name() string {
	if h.class.slice {
		return h.owner + ".locks[k]"
	}
	return h.owner + "." + h.field
}

type scanner struct {
	pass *analysis.Pass
	recv string
	held []heldLock
}

func (sc *scanner) stmts(list []ast.Stmt) {
	for _, s := range list {
		sc.stmt(s)
	}
}

func (sc *scanner) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			sc.call(call, false)
		}
	case *ast.DeferStmt:
		sc.call(s.Call, true)
	case *ast.BlockStmt:
		sc.stmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			sc.stmt(s.Init)
		}
		sc.stmt(s.Body)
		if s.Else != nil {
			sc.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			sc.stmt(s.Init)
		}
		sc.stmt(s.Body)
	case *ast.RangeStmt:
		sc.stmt(s.Body)
	case *ast.SwitchStmt:
		sc.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		sc.stmt(s.Body)
	case *ast.CaseClause:
		sc.stmts(s.Body)
	case *ast.SelectStmt:
		sc.stmt(s.Body)
	case *ast.CommClause:
		sc.stmts(s.Body)
	case *ast.LabeledStmt:
		sc.stmt(s.Stmt)
	}
}

// call classifies one x.Lock()/x.Unlock()-shaped call. Deferred
// unlocks are ignored; a deferred *lock* would be bizarre and is
// ignored too.
func (sc *scanner) call(call *ast.CallExpr, deferred bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return
	}
	h, ok := sc.resolve(sel.X)
	if !ok || deferred {
		return
	}
	if acquire {
		sc.acquire(call, h)
	} else {
		sc.release(h)
	}
}

// resolve maps the locked expression (cs.topoMu, cs.locks[k], st.mu, …)
// to its lock class.
func (sc *scanner) resolve(e ast.Expr) (heldLock, bool) {
	h := heldLock{compIdx: -1}
	if idx, ok := e.(*ast.IndexExpr); ok {
		if tv, ok := sc.pass.TypesInfo.Types[idx.Index]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
			if v, exact := constant.Int64Val(tv.Value); exact {
				h.compIdx = v
			}
		}
		e = idx.X
	}
	fieldSel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return h, false
	}
	selInfo, ok := sc.pass.TypesInfo.Selections[fieldSel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return h, false
	}
	t := selInfo.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return h, false
	}
	h.owner, h.field = named.Obj().Name(), fieldSel.Sel.Name
	h.class, ok = classes[[2]string{h.owner, h.field}]
	return h, ok
}

func (sc *scanner) acquire(call *ast.CallExpr, h heldLock) {
	if h.class.slice && sc.recv != componentOwner {
		sc.pass.Reportf(call.Pos(), "component lock %s.%s acquired outside %s's methods: the ascending-order discipline lives in the session's helpers; add a helper method instead", h.owner, h.field, componentOwner)
	}
	for _, held := range sc.held {
		if held.class.hier != h.class.hier {
			continue
		}
		switch {
		case held.class.level > h.class.level:
			sc.pass.Reportf(call.Pos(), "%s acquired while holding %s, violating the documented lock order (%s)", h.name(), held.name(), h.class.order)
		case held.class.level == h.class.level && h.class.slice && held.compIdx >= 0 && h.compIdx >= 0 && h.compIdx <= held.compIdx:
			sc.pass.Reportf(call.Pos(), "component lock %d acquired while holding component lock %d: multi-lock paths must acquire in ascending component order", h.compIdx, held.compIdx)
		case held.class.level == h.class.level && !h.class.slice && held.field == h.field && held.owner == h.owner:
			sc.pass.Reportf(call.Pos(), "%s acquired while already held (self-deadlock for a Mutex; writer-starvation hazard for an RWMutex read lock)", h.name())
		}
	}
	sc.held = append(sc.held, h)
}

// release drops the most recent matching acquisition, if any.
func (sc *scanner) release(h heldLock) {
	for i := len(sc.held) - 1; i >= 0; i-- {
		held := sc.held[i]
		if held.owner != h.owner || held.field != h.field {
			continue
		}
		if h.class.slice && held.compIdx >= 0 && h.compIdx >= 0 && held.compIdx != h.compIdx {
			continue
		}
		sc.held = append(sc.held[:i], sc.held[i+1:]...)
		return
	}
}
