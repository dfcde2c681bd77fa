package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotpathAnalyzer enforces the 0 B/decision steady-state invariant on
// functions annotated //fuzzyho:hotpath: the serve decision loop
// (shard.processBatch / decideRun), the compiled segment kernel, the
// terminal-store probes, obs Observe/Add and the wire codecs.
// The runtime guard for the same property is
// TestServeSteadyStateBytesPerShardCount, which samples; this analyzer
// checks every line of every build.
//
// Inside a hotpath function the analyzer rejects:
//
//   - defer and go statements, closures, map/slice/pointer composite
//     literals, make/new, map iteration — each an allocation or a
//     scheduling point;
//   - string<->[]byte conversions and conversions to interface types
//     (boxing);
//   - interface boxing at call arguments, returns and assignments for
//     non-pointer-shaped operands;
//   - calls to fmt, errors, log and other allocating stdlib surface;
//   - calls to math.Min and math.Max, which on amd64 are assembly the
//     compiler cannot inline (the builtin min and max are not);
//   - calls to any function that is neither whitelisted (math,
//     sync/atomic, strconv.Append*, ...) nor itself annotated
//     //fuzzyho:hotpath — the transitive audit flows through object
//     facts, so cross-package callees are covered.
//
// Cold guard branches that are genuinely unreachable in steady state
// carry //fuzzyho:allow with a justification.
var HotpathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid allocation and unaudited calls in //fuzzyho:hotpath functions",
	Run:  runHotpath,
}

// hotpathFact marks an object as hotpath-audited for importing packages.
type hotpathFact struct{}

// hotpathAllowedPkgs are packages every function of which is considered
// allocation-free and safe on the hot path.
var hotpathAllowedPkgs = map[string]bool{
	"math":         true,
	"math/bits":    true,
	"sync/atomic":  true,
	"unicode/utf8": true,
	"unsafe":       true,
}

// hotpathAllowedFuncs whitelists individual stdlib functions and methods
// (types.Func.FullName form) that do not allocate.
var hotpathAllowedFuncs = map[string]bool{
	"time.Since":                  true,
	"(time.Time).UnixNano":        true,
	"(time.Duration).Seconds":     true,
	"(time.Duration).Nanoseconds": true,
	"strconv.AppendInt":           true,
	"strconv.AppendUint":          true,
	"strconv.AppendFloat":         true,
	"strconv.AppendBool":          true,
	"bytes.HasPrefix":             true,
	"bytes.IndexByte":             true,
	"bytes.Equal":                 true,
	"(error).Error":               true,
	"sort.Search":                 true,
	// The wire decoders' number and key parsing: ParseFloat, ParseInt and
	// ParseUint allocate only the *NumError they fail with.
	"strconv.ParseFloat": true,
	"strconv.ParseInt":   true,
	"strconv.ParseUint":  true,
	"strings.EqualFold":  true,
}

// hotpathDeniedFuncs are functions of otherwise allowed packages that the
// hot path must not call, each with the reason the diagnostic gives.
var hotpathDeniedFuncs = map[string]string{
	"math.Min": "on amd64 it calls assembly the compiler cannot inline; the builtin min gives the same NaN, ±0 and ±Inf results",
	"math.Max": "on amd64 it calls assembly the compiler cannot inline; the builtin max gives the same NaN, ±0 and ±Inf results",
}

// hotpathDeniedPkgs name the usual allocation suspects explicitly so the
// diagnostic can say why; any other unlisted package is still denied by
// default, with the generic not-audited message.
var hotpathDeniedPkgs = map[string]string{
	"fmt":    "every fmt call allocates (boxing its arguments at minimum)",
	"errors": "errors.New/errors.Join allocate; predeclare sentinel errors at package level",
	"log":    "log formats through fmt and locks",
}

func runHotpath(pass *Pass) error {
	pkg := pass.Pkg
	// Phase 1: export facts for every annotated function and interface
	// method, so same-package (declaration order independent) and
	// importing-package calls both resolve.
	annotated := annotatedFuncs(pkg, DirHotpath)
	for fn := range annotated {
		pass.ExportFact(fn, hotpathFact{})
	}
	isHot := func(fn *types.Func) bool {
		if annotated[fn] {
			return true
		}
		_, ok := pass.ImportFact(fn)
		return ok
	}

	// Phase 2: check annotated bodies.
	for decl := range funcDeclsWith(pkg, DirHotpath) {
		name := decl.Name.Name
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				pass.Reportf(n.Pos(), "defer in hotpath function %s: defers allocate their frame and run off the fast path (0 B/decision invariant, pinned by TestServeSteadyStateBytesPerShardCount)", name)
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in hotpath function %s: spawning goroutines allocates and schedules on the decision path", name)
			case *ast.FuncLit:
				pass.Reportf(n.Pos(), "closure literal in hotpath function %s: captured variables escape to the heap (0 B/decision invariant)", name)
				return false
			case *ast.RangeStmt:
				if tv, ok := pkg.Info.Types[n.X]; ok && isMapType(tv.Type) {
					pass.Reportf(n.Pos(), "map iteration in hotpath function %s: map ranging costs hidden iterator work and randomizes order; hot state belongs in slices/arrays (cf. terminalStore)", name)
				}
			case *ast.CompositeLit:
				if tv, ok := pkg.Info.Types[n]; ok {
					switch tv.Type.Underlying().(type) {
					case *types.Map, *types.Slice:
						pass.Reportf(n.Pos(), "%s composite literal in hotpath function %s allocates; preallocate in setup and reuse (0 B/decision invariant)", typeKindName(tv.Type), name)
					}
				}
			case *ast.UnaryExpr:
				if n.Op.String() == "&" {
					if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
						pass.Reportf(n.Pos(), "&composite literal in hotpath function %s escapes to the heap; reuse preallocated state instead (0 B/decision invariant)", name)
					}
				}
			case *ast.CallExpr:
				checkHotpathCall(pass, name, n, isHot)
			case *ast.ReturnStmt:
				checkHotpathReturn(pass, pkg, name, decl, n)
			case *ast.AssignStmt:
				checkHotpathAssign(pass, pkg, name, n)
			}
			return true
		})
	}
	return nil
}

func typeKindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Map:
		return "map"
	case *types.Slice:
		return "slice"
	}
	return "composite"
}

func checkHotpathCall(pass *Pass, name string, call *ast.CallExpr, isHot func(*types.Func) bool) {
	pkg := pass.Pkg
	kind, obj := callee(pkg.Info, call)
	switch kind {
	case calleeBuiltin:
		switch obj.Name() {
		case "make", "new":
			pass.Reportf(call.Pos(), "%s in hotpath function %s allocates; size buffers in setup and reuse them (0 B/decision invariant)", obj.Name(), name)
		}
		return
	case calleeConversion:
		checkHotpathConversion(pass, name, call)
		return
	case calleeDynamic:
		pass.Reportf(call.Pos(), "dynamic call through a func value in hotpath function %s: the target cannot be audited statically — call an annotated function or method, or //fuzzyho:allow with the reason the target is safe", name)
		return
	case calleeFunc:
		fn := obj.(*types.Func)
		checkHotpathBoxingArgs(pass, name, call, fn)
		if isHot(fn) {
			return
		}
		if why, ok := hotpathDeniedFuncs[fn.FullName()]; ok {
			pass.Reportf(call.Pos(), "call to %s in hotpath function %s: %s", funcDisplayName(fn), name, why)
			return
		}
		fnPkg := fn.Pkg()
		if fnPkg == nil { // error.Error and other universe-scope methods
			if hotpathAllowedFuncs[fn.FullName()] {
				return
			}
		} else {
			if hotpathAllowedPkgs[fnPkg.Path()] || hotpathAllowedFuncs[fn.FullName()] {
				return
			}
			if why, ok := hotpathDeniedPkgs[fnPkg.Path()]; ok {
				pass.Reportf(call.Pos(), "call to %s in hotpath function %s: %s (0 B/decision invariant, pinned by TestServeSteadyStateBytesPerShardCount)", funcDisplayName(fn), name, why)
				return
			}
		}
		pass.Reportf(call.Pos(), "hotpath function %s calls %s, which is neither //fuzzyho:hotpath-annotated nor whitelisted: every transitive callee of the serve decision loop must be audited for the 0 B/decision invariant", name, funcDisplayName(fn))
	}
}

// checkHotpathConversion flags conversions that allocate: string<->[]byte
// and concrete-to-interface.
func checkHotpathConversion(pass *Pass, name string, call *ast.CallExpr) {
	pkg := pass.Pkg
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || len(call.Args) != 1 {
		return
	}
	dst := tv.Type
	src := pkg.Info.Types[call.Args[0]].Type
	if src == nil {
		return
	}
	if isStringByteConv(dst, src) {
		pass.Reportf(call.Pos(), "string/[]byte conversion in hotpath function %s copies its operand; keep one representation end to end (0 B/decision invariant)", name)
		return
	}
	if types.IsInterface(dst.Underlying()) && !types.IsInterface(src.Underlying()) && !pointerShaped(src) {
		pass.Reportf(call.Pos(), "conversion to interface type in hotpath function %s boxes its operand on the heap (0 B/decision invariant)", name)
	}
}

func isStringByteConv(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (isStr(dst) && isBytes(src)) || (isBytes(dst) && isStr(src))
}

// checkHotpathBoxingArgs flags concrete, non-pointer-shaped arguments
// passed to interface-typed parameters: the values box on the heap.
func checkHotpathBoxingArgs(pass *Pass, name string, call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		reportBoxing(pass, name, arg, pt, "argument")
	}
}

func checkHotpathReturn(pass *Pass, pkg *Package, name string, decl *ast.FuncDecl, ret *ast.ReturnStmt) {
	obj, ok := pkg.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return
	}
	results := obj.Type().(*types.Signature).Results()
	if results.Len() != len(ret.Results) {
		return // multi-value forwarding; covered at the callee
	}
	for i, expr := range ret.Results {
		reportBoxing(pass, name, expr, results.At(i).Type(), "return value")
	}
}

func checkHotpathAssign(pass *Pass, pkg *Package, name string, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := pkg.Info.Types[lhs].Type
		if lt == nil {
			if id, ok := lhs.(*ast.Ident); ok {
				if def := pkg.Info.Defs[id]; def != nil {
					lt = def.Type()
				}
			}
		}
		if lt == nil {
			continue
		}
		reportBoxing(pass, name, as.Rhs[i], lt, "assignment")
	}
}

// reportBoxing reports expr being used as dst when that implies boxing a
// concrete non-pointer-shaped value into an interface.
func reportBoxing(pass *Pass, name string, expr ast.Expr, dst types.Type, what string) {
	if dst == nil || !types.IsInterface(dst.Underlying()) {
		return
	}
	tv, ok := pass.Pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	src := tv.Type
	if b, ok := src.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if types.IsInterface(src.Underlying()) || pointerShaped(src) {
		return
	}
	// Untyped constants convert at compile time; small constants are
	// interned by the runtime, but the general case still allocates —
	// keep the check and let call sites justify exceptions.
	pass.Reportf(expr.Pos(), "interface boxing at %s in hotpath function %s: %s value stored in an interface allocates (0 B/decision invariant)", what, name, strings.TrimPrefix(src.String(), pass.Pkg.Path+"."))
}
