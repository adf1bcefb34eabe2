package lint

import (
	"go/ast"
	"go/types"
)

// SendpathAnalyzer enforces the outbox discipline for cross-shard
// communication: code running under one LP class may not schedule
// events (Kernel.At/After/Reschedule) on a kernel owned by a different
// class, nor wake (Signal.Fire/FireAll) a signal owned by a different
// class. Crossing the shard boundary must go through the coordinator
// outboxes — AfterOn/AfterNet — which stamp the event with a
// lookahead-respecting timestamp and route it via the per-window
// exchange; direct pushes bypass the null-message protocol and are
// exactly the class of bug that breaks bit-identical replay at other
// shard counts. Kernel and signal ownership comes from the //dpml:owner
// model (owner.go); receivers the model cannot resolve are left to the
// kernel's runtime cross-LP assertions.
var SendpathAnalyzer = &Analyzer{
	Name:      "sendpath",
	Doc:       "cross-LP communication goes through AfterOn/AfterNet outboxes, never direct scheduling or wakes on another class's kernel",
	RunModule: runSendpath,
}

func runSendpath(p *ModulePass) {
	o := p.ownership()
	for _, u := range o.units {
		if len(u.classes) == 0 || u.ctor {
			continue
		}
		if !p.TargetPkg(u.pkg) || !lpCheckedPkg(u.pkg.Path, "sendpath") || u.pkg.Path == "dpml/internal/sim" {
			continue
		}
		uu := u
		info := uu.pkg.Info
		classes := sortedClasses(uu)
		o.inspectUnit(uu, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			recv := recvOf(fn)
			if recv == nil {
				return true
			}
			tn := baseTypeName(recv.Type())
			sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !okSel {
				return true
			}
			switch {
			case isSimType(tn, "Kernel") && (fn.Name() == "At" || fn.Name() == "After" || fn.Name() == "Reschedule"):
				kc := o.kernelClass(uu.pkg, sel.X, 8)
				if kc != classNode && kc != classNet {
					return true
				}
				for _, c := range classes {
					if c == kc {
						continue
					}
					p.Reportf(call.Pos(), "Kernel.%s schedules directly on a %s-LP kernel from a %s-LP context: %s; route cross-LP events through AfterOn/AfterNet so the coordinator outbox carries them",
						fn.Name(), kc, c, o.chain(uu, c))
				}
			case isSimType(tn, "Signal") && (fn.Name() == "Fire" || fn.Name() == "FireAll"):
				fsel, okF := ast.Unparen(sel.X).(*ast.SelectorExpr)
				if !okF {
					return true
				}
				s := info.Selections[fsel]
				if s == nil || s.Kind() != types.FieldVal {
					return true
				}
				v, okV := s.Obj().(*types.Var)
				if !okV {
					return true
				}
				own := o.fieldClass[v]
				if own != classNode && own != classNet {
					return true
				}
				for _, c := range classes {
					if c == own {
						continue
					}
					p.Reportf(call.Pos(), "Signal.%s wakes the %s-owned signal %s.%s from a %s-LP context: %s; hand the wake through the coordinator outbox instead",
						fn.Name(), own, o.fieldOwner[v], v.Name(), c, o.chain(uu, c))
				}
			}
			return true
		})
	}
}
