// Package snapshotcheck implements the grblint analyzer that guards the
// substrate's ownership contract: CSR matrices and sparse vectors are
// snapshots, and a snapshot's storage is written only by the code that made
// it — with one exception, a vector's value array (and a bitmap's flags),
// which the drain that supersedes it may grant to its kernel when nothing
// else can read it (DESIGN.md, "Writing into superseded storage"). The
// transpose cache and the nonblocking pipeline both rest on this: a kernel that writes storage
// someone else can read breaks them silently.
//
// The rule: inside the sparse package, a function must not write to the
// storage slices (CSR.Ptr/Ind/Val, Vec.Ind/Val/Bit) of a *CSR/*Vec it received
// as a parameter or receiver — writes include field assignment, element
// assignment, ++/--, append-reassignment, and copy/clear into the slice.
// Freshly allocated locals (composite literals, NewCSR/NewVec, Clone) are
// exempt, as are functions whose name starts with "install" or "new" — the
// blessed constructor/install helpers that build an object before it is
// published.
//
// The grant is Exec.Spare, and reuseVal (a value array) and bitmapBase (a
// bitmap's Val and Bit) are its doors: each hands the kernel the superseded
// storage, and what it returns is the caller's to write. Every other function
// that names Exec.Spare, to read it or to set it, is reported; the doors'
// own bodies are not checked.
//
// Kernels whose output keeps an operand's pattern share that operand's
// index array instead of copying it (DESIGN.md, "Vector write-back: sharing
// and exact allocation"), so the analyzer also tracks shared storage: a
// local *CSR/*Vec whose Ptr/Ind/Val field is initialised — in its composite
// literal or by a later field assignment — from an operand's storage slice
// shares that field; a Vec whose Bit is taken from an operand's is reported
// where it is made, since only Ind may be shared, and so is a full Vec
// — a literal that names no Ind — built on an operand's Val, which is
// the operand's whole storage. Element writes, ++/--, append-reassignment and
// copy/clear into a shared field are reported exactly like writes through
// the operand; the local's other, freshly made fields stay writable, and
// rebinding the field to a fresh slice is not a write.
//
// The check is intraprocedural and flow-insensitive, and tracks direct
// parameter identifiers and such field-level sharing only; aliasing a
// storage slice into a plain local slice variable and writing through that
// is not caught (document such helpers as install* instead).
package snapshotcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/grblas/grb/internal/lint"
)

// Analyzer is the snapshotcheck analyzer.
var Analyzer = &lint.Analyzer{
	Name: "snapshotcheck",
	Doc: "report writes to the storage slices of snapshot (*CSR/*Vec) parameters inside the sparse " +
		"package, any use of Exec.Spare outside its doors, and any Vec sharing an operand's Bit or, in the full form, " +
		"its Val; kernels write only " +
		"storage they made",
	Run: run,
}

// storageFields lists the guarded fields per snapshot type.
var storageFields = map[string]map[string]bool{
	"CSR": {"Ptr": true, "Ind": true, "Val": true},
	"Vec": {"Ind": true, "Val": true, "Bit": true},
}

// doors are the functions that hand a kernel the step's grant.
var doors = map[string]bool{"reuseVal": true, "bitmapBase": true}

func run(pass *lint.Pass) error {
	if pass.Pkg.Name() != "sparse" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if doors[fd.Name.Name] {
				continue
			}
			checkGrant(pass, fd.Body)
			snaps := snapshotOperands(pass.TypesInfo, fd)
			if len(snaps) == 0 {
				continue
			}
			if shared := sharedFields(pass, fd.Body, snaps); !exemptFunc(fd.Name.Name) {
				checkBody(pass, fd, snaps, shared)
			}
		}
	}
	return nil
}

// checkGrant reports every use of the Exec.Spare field in body.
func checkGrant(pass *lint.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "Spare" {
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg().Name() == "sparse" {
				pass.Reportf(id.Pos(), "Exec.Spare used outside reuseVal and bitmapBase, the doors to the "+
					"step's grant of superseded storage")
			}
		}
		return true
	})
}

// exemptFunc reports whether a function name marks a blessed mutator: the
// constructors and install helpers that build storage before publication.
func exemptFunc(name string) bool {
	lower := strings.ToLower(name)
	return strings.HasPrefix(lower, "install") || strings.HasPrefix(lower, "new")
}

// snapshotOperands collects the receiver and parameters of snapshot type.
func snapshotOperands(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	snaps := map[types.Object]bool{}
	collect := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, field := range fields.List {
			for _, name := range field.Names {
				obj := info.Defs[name]
				if obj != nil && isSnapshotType(obj.Type()) {
					snaps[obj] = true
				}
			}
		}
	}
	collect(fd.Recv)
	collect(fd.Type.Params)
	return snaps
}

func isSnapshotType(t types.Type) bool {
	return lint.IsNamed(t, "sparse", "CSR", "Vec")
}

// sharing maps a local snapshot variable to the storage fields it shares
// with an operand.
type sharing map[types.Object]map[string]bool

// sharedFields collects the locals of snapshot type that take a storage
// field from an operand: `out := &Vec[T]{Ind: u.Ind, ...}` (with or without
// &, by := / = / var) and `out.Ind = u.Ind`. A re-slice of the operand's
// storage (u.Ind[:k]) shares it just the same. A shared Bit is reported.
func sharedFields(pass *lint.Pass, body *ast.BlockStmt, snaps map[types.Object]bool) sharing {
	info, shared := pass.TypesInfo, sharing{}
	mark := func(obj types.Object, field string, at ast.Node) {
		if obj == nil || snaps[obj] {
			return
		}
		if field == "Bit" {
			pass.Reportf(at.Pos(), "%s takes an operand's Bit; only Ind may be shared — a bitmap is written in place "+
				"by the drain that supersedes it", obj.Name())
		}
		if shared[obj] == nil {
			shared[obj] = map[string]bool{}
		}
		shared[obj][field] = true
	}
	bind := func(lhs, rhs ast.Expr) {
		if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
			// out.Ind = u.Ind
			if _, obj := fieldBase(info, sel); obj != nil && isSnapshotType(obj.Type()) &&
				storageFields[snapshotTypeName(obj.Type())][sel.Sel.Name] && operandStorage(info, rhs, snaps) {
				mark(obj, sel.Sel.Name, sel)
			}
			return
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok {
			rhs = u.X
		}
		lit, ok := ast.Unparen(rhs).(*ast.CompositeLit)
		if !ok || !isSnapshotType(info.TypeOf(lit)) {
			return
		}
		fields := storageFields[snapshotTypeName(info.TypeOf(lit))]
		var sharedVal ast.Node // a Val taken from an operand,
		hasInd := false        // and whether the literal names an Ind
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok || !fields[key.Name] {
				continue
			}
			hasInd = hasInd || key.Name == "Ind"
			if operandStorage(info, kv.Value, snaps) {
				mark(obj, key.Name, kv)
				if key.Name == "Val" {
					sharedVal = kv
				}
			}
		}
		if sharedVal != nil && !hasInd && snapshotTypeName(info.TypeOf(lit)) == "Vec" && obj != nil && !snaps[obj] {
			pass.Reportf(sharedVal.Pos(), "%s is a full Vec on an operand's Val; a full vector is its Val, so the "+
				"drain that supersedes it would write the operand — return the operand itself, or copy", obj.Name())
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					bind(s.Lhs[i], s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) == len(s.Values) {
				for i := range s.Names {
					bind(s.Names[i], s.Values[i])
				}
			}
		}
		return true
	})
	return shared
}

// operandStorage reports whether expr is (a re-slice of) a guarded storage
// field of a snapshot operand: u.Ind, a.Ptr[lo:hi].
func operandStorage(info *types.Info, expr ast.Expr, snaps map[types.Object]bool) bool {
	sel := baseSelector(expr)
	if sel == nil {
		return false
	}
	_, obj := fieldBase(info, sel)
	return obj != nil && snaps[obj] && storageFields[snapshotTypeName(obj.Type())][sel.Sel.Name]
}

func snapshotTypeName(t types.Type) string {
	return lint.NamedFrom(t).Origin().Obj().Name()
}

func checkBody(pass *lint.Pass, fd *ast.FuncDecl, snaps map[types.Object]bool, shared sharing) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncDecl:
			return true
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				how := "assigned to"
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && sharedField(pass.TypesInfo, sel, shared) {
					// Rebinding a shared field is a write only when it
					// grows the shared array in place.
					if len(s.Lhs) != len(s.Rhs) || !appendsTo(pass.TypesInfo, s.Rhs[i], sel) {
						continue
					}
					how = "grown by append through"
				}
				reportStorageWrite(pass, lhs, snaps, shared, how)
			}
		case *ast.IncDecStmt:
			reportStorageWrite(pass, s.X, snaps, shared, "mutated by ++/-- through")
		case *ast.CallExpr:
			// copy(snap.Ind, ...) and clear(snap.Ind) write through the
			// first argument.
			if name := builtinName(pass.TypesInfo, s); (name == "copy" || name == "clear") && len(s.Args) > 0 {
				reportStorageWrite(pass, s.Args[0], snaps, shared, "written by "+name+" through")
			}
		}
		return true
	})
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil && obj.Pkg() == nil {
			return id.Name
		}
	}
	return ""
}

// sharedField reports whether sel names a field a local shares with an
// operand.
func sharedField(info *types.Info, sel *ast.SelectorExpr, shared sharing) bool {
	_, obj := fieldBase(info, sel)
	return shared[obj][sel.Sel.Name]
}

// appendsTo reports whether rhs is append(field, ...) for that same field.
func appendsTo(info *types.Info, rhs ast.Expr, field *ast.SelectorExpr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || builtinName(info, call) != "append" || len(call.Args) == 0 {
		return false
	}
	arg := baseSelector(call.Args[0])
	return arg != nil && sameField(info, arg, field)
}

// reportStorageWrite flags expr when it is (or indexes into) a guarded
// storage field of a snapshot operand, or of a local that shares that field
// with an operand.
func reportStorageWrite(pass *lint.Pass, expr ast.Expr, snaps map[types.Object]bool, shared sharing, how string) {
	sel := baseSelector(expr)
	if sel == nil {
		return
	}
	base, obj := fieldBase(pass.TypesInfo, sel)
	switch {
	case obj == nil:
	case snaps[obj]:
		typeName := snapshotTypeName(obj.Type())
		if !storageFields[typeName][sel.Sel.Name] {
			return
		}
		pass.Reportf(expr.Pos(),
			"snapshot %s.%s %s a %s parameter's storage; snapshots are immutable — build a fresh %s "+
				"(or mark the function as an install* helper)",
			base.Name, sel.Sel.Name, how, typeName, typeName)
	case shared[obj][sel.Sel.Name]:
		pass.Reportf(expr.Pos(),
			"%s.%s %s storage shared with a snapshot parameter; shared storage is immutable — "+
				"give %s its own %s before writing",
			base.Name, sel.Sel.Name, how, base.Name, sel.Sel.Name)
	}
}

// sameField reports whether two selectors name the same field of the same
// variable.
func sameField(info *types.Info, a, b *ast.SelectorExpr) bool {
	_, ao := fieldBase(info, a)
	_, bo := fieldBase(info, b)
	return ao != nil && ao == bo && a.Sel.Name == b.Sel.Name
}

// baseSelector peels index and slice expressions off expr down to the
// selector being written through, if any: m.Ptr, m.Ptr[i], m.Ind[lo:hi].
func baseSelector(expr ast.Expr) *ast.SelectorExpr {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.SelectorExpr:
			return e
		default:
			return nil
		}
	}
}

// fieldBase resolves the variable a selector reads its field from — m in
// m.Ptr and (*m).Ptr — or returns nils when the base is not a plain
// variable.
func fieldBase(info *types.Info, sel *ast.SelectorExpr) (*ast.Ident, types.Object) {
	id, ok := ast.Unparen(derefExpr(sel.X)).(*ast.Ident)
	if !ok || info.Uses[id] == nil {
		return nil, nil
	}
	return id, info.Uses[id]
}

// derefExpr unwraps a unary * so (*m).Ptr matches like m.Ptr.
func derefExpr(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.StarExpr); ok {
		return u.X
	}
	return e
}
