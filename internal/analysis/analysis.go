// Package analysis is the custom static-analysis suite (`hovet`) that
// enforces the codebase's three load-bearing invariants at build time:
//
//   - 0 B/decision steady state on the serve hot path (hotpath analyzer),
//   - byte-identical decision sequences across sim/serve/cluster
//     (determinism analyzer),
//   - no blocking I/O reachable from code that runs under the membership
//     locks (lockcheck analyzer),
//
// plus the wire-surface pairing rule (wirepair analyzer): an encoder
// cannot land without its decoder and a seeded fuzz target.
//
// The suite is intentionally self-contained: it mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer / Pass / object Facts /
// analysistest-style fixtures) but is built only on the standard
// library's go/ast, go/types and go/importer, with package metadata and
// export data supplied by `go list -deps -export -json`.  The container
// this repo builds in has no module proxy access, so vendoring x/tools
// is not an option; the subset implemented here is exactly what the four
// analyzers need.
//
// Policy lives next to the code as comment annotations:
//
//	//fuzzyho:hotpath        this function is on the 0-alloc serve path
//	//fuzzyho:deterministic  this function feeds decision sequences or
//	                         wire bytes
//	//fuzzyho:nolockio       this function runs while holding TCP.memMu /
//	                         the ring-flip lock or DecisionMux's
//	                         claim-table lock
//	//fuzzyho:allow <why>    suppress findings on the annotated line
//	                         (the justification string is mandatory)
//	//fuzzyho:wirepair parse=P fuzz=F   explicit encoder/decoder pairing
//	                         when names do not match by convention
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check.  Run inspects a single package through its
// Pass and reports diagnostics; cross-package state flows through object
// facts (see Pass.ExportFact / Pass.ImportFact).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Fset     *token.FileSet

	suite *Suite
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.  Findings on lines carrying (or
// directly below) a `//fuzzyho:allow reason` annotation are dropped by
// the suite after the analyzer runs.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// factKey namespaces facts per analyzer: each analyzer sees only the
// facts it exported itself (on any package analyzed earlier in
// dependency order, or this one).
type factKey struct {
	analyzer string
	obj      types.Object
}

// ExportFact attaches a fact to obj for this analyzer.  Packages are
// analyzed in dependency order and share one types object space (module
// packages are type-checked from source and imported as the same
// *types.Package), so facts exported while analyzing a dependency are
// visible verbatim when its importers are analyzed.
func (p *Pass) ExportFact(obj types.Object, fact any) {
	p.suite.facts[factKey{p.Analyzer.Name, obj}] = fact
}

// ImportFact returns the fact this analyzer attached to obj, if any.
func (p *Pass) ImportFact(obj types.Object) (any, bool) {
	f, ok := p.suite.facts[factKey{p.Analyzer.Name, obj}]
	return f, ok
}

// Suite runs a set of analyzers over packages in dependency order with a
// shared fact store.
type Suite struct {
	Analyzers []*Analyzer
	facts     map[factKey]any
}

// NewSuite builds a suite over the given analyzers.
func NewSuite(as ...*Analyzer) *Suite {
	return &Suite{Analyzers: as, facts: make(map[factKey]any)}
}

// DefaultAnalyzers is the hovet check set, in reporting order.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{HotpathAnalyzer, DeterminismAnalyzer, LockcheckAnalyzer, WirepairAnalyzer}
}

// Run analyzes every target package (pkgs must be in dependency order,
// as returned by the loader) and returns the surviving diagnostics,
// sorted by position.  Malformed fuzzyho annotations are themselves
// diagnostics (analyzer name "fuzzyho"); `//fuzzyho:allow` suppressions
// are applied to analyzer findings but never to annotation errors.
func (s *Suite) Run(pkgs []*Package) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		if !pkg.Target {
			continue
		}
		ann, annDiags := ScanAnnotations(pkg)
		out = append(out, annDiags...)
		for _, a := range s.Analyzers {
			var diags []Diagnostic
			pass := &Pass{Analyzer: a, Pkg: pkg, Fset: pkg.Fset, suite: s, diags: &diags}
			if err := a.Run(pass); err != nil {
				return out, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				if ann.Allowed(d.Pos) {
					continue
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// funcDeclOf returns the FuncDecl enclosing pos in file, or nil.
func funcDeclOf(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}
