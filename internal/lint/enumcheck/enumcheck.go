// Package enumcheck implements the grblint analyzer that keeps switches
// over the GraphBLAS enumerations exhaustive. §IX of the GraphBLAS 2.0
// paper pins explicit values for every enumeration member; a switch that
// silently falls through on a member it does not know about (a new Info
// code, a new storage Format) is how enum growth turns into latent bugs.
//
// The rule: a switch whose tag has one of the guarded enum types must
// either carry a default clause or name every declared constant of the
// type. Constants are matched by value, so aliases (e.g. two names pinned
// to the same code) count once.
package enumcheck

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"github.com/grblas/grb/internal/lint"
)

// Analyzer is the enumcheck analyzer.
var Analyzer = &lint.Analyzer{
	Name: "enumcheck",
	Doc: "report non-exhaustive switches over the GraphBLAS enumerations (Info, WaitMode, Mode, " +
		"Format, Direction) — §IX pins the enum values, so every member must be handled or a " +
		"default supplied",
	Run: run,
}

// guardedEnums are the grb enumeration type names whose switches must be
// exhaustive: the return codes, the wait and execution modes, the exchange
// formats, and the descriptor's direction pin. Each must name a type the
// root package declares (TestGuardedEnumsAreDeclared).
var guardedEnums = map[string]bool{
	"Info": true, "WaitMode": true, "Mode": true,
	"Format": true, "Direction": true,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkSwitch(pass, sw)
			return true
		})
	}
	return nil
}

func checkSwitch(pass *lint.Pass, sw *ast.SwitchStmt) {
	tv, ok := pass.TypesInfo.Types[sw.Tag]
	if !ok {
		return
	}
	named := lint.NamedFrom(tv.Type)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Name() != "grb" ||
		!guardedEnums[named.Obj().Name()] {
		return
	}

	covered := map[string]bool{}
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // default clause: the switch handles unknown members
		}
		for _, e := range cc.List {
			if etv, ok := pass.TypesInfo.Types[e]; ok && etv.Value != nil {
				covered[etv.Value.ExactString()] = true
			} else {
				// A non-constant case (variable comparison) defeats the
				// member-coverage analysis; treat it like a default.
				return
			}
		}
	}

	missing := missingMembers(named, covered)
	if len(missing) == 0 {
		return
	}
	pass.Reportf(sw.Pos(), "switch over grb.%s is not exhaustive: missing %s (add the cases or a default; §IX pins the enum values)",
		named.Obj().Name(), strings.Join(missing, ", "))
}

// missingMembers returns the names of declared constants of the enum type
// whose values no case covers, one representative name per value.
func missingMembers(named *types.Named, covered map[string]bool) []string {
	scope := named.Obj().Pkg().Scope()
	byValue := map[string]string{} // value -> first declared name
	var order []string
	for _, name := range scope.Names() {
		cn, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(cn.Type(), named) {
			continue
		}
		v := cn.Val()
		if v.Kind() == constant.Unknown {
			continue
		}
		key := v.ExactString()
		if _, seen := byValue[key]; !seen {
			byValue[key] = name
			order = append(order, key)
		}
	}
	var missing []string
	for _, key := range order {
		if !covered[key] {
			missing = append(missing, byValue[key])
		}
	}
	sort.Strings(missing)
	return missing
}
