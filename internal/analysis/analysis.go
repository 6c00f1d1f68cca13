// Package analysis is the invariant-enforcement layer of the
// reproduction: a small, dependency-free mirror of the
// golang.org/x/tools/go/analysis API plus the four custom analyzers
// (lockorder, determinism, snapshotsafe, fsseam) that machine-check the
// cross-cutting contracts the rest of the codebase only documents —
// the Session lock hierarchy, the bit-reproducibility
// determinism contract, immutable ComponentSnapshot publication, and
// the wal.FS fault-injection seam. See DESIGN.md, "Invariant
// enforcement".
//
// The API intentionally matches the x/tools shape (Analyzer, Pass,
// Diagnostic, Reportf) so the analyzers port verbatim to the real
// framework if the dependency ever becomes available; the container
// this repo grows in has no module proxy, so the driver (loader,
// fixture runner, suppression layer) is implemented here on the
// standard library alone: packages are enumerated with
// `go list -json -deps` and type-checked from source.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker. It is the unit cmd/lint
// composes into a multichecker and analysistest exercises against
// fixtures.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore <name> suppression directives.
	Name string
	// Doc is the one-paragraph contract statement shown by
	// `cmd/lint -help`.
	Doc string
	// Match reports whether the analyzer applies to a package path.
	// It is driver-level scoping only: the fixture runner ignores it
	// (fixtures live under synthetic paths), and a nil Match means
	// every package.
	Match func(pkgPath string) bool
	// Run inspects one package and reports violations through
	// pass.Report.
	Run func(*Pass) error
}

// Pass carries one analyzed package to an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos token.Pos
	// Category is the reporting analyzer's name (or "lintdirective"
	// for malformed suppression directives, which the framework itself
	// reports).
	Category string
	Message  string
}

// FileOf returns the file containing pos, or nil.
func FileOf(files []*ast.File, pos token.Pos) *ast.File {
	for _, f := range files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}
