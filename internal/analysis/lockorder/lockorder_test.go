package lockorder

import (
	"testing"

	"schemanet/internal/analysis/analysistest"
)

func TestFixtures(t *testing.T) {
	analysistest.Run(t, "../testdata", Analyzer, "lockorder")
}

func TestScope(t *testing.T) {
	if !Analyzer.Match("schemanet") {
		t.Error("the root package (session.go, store.go) must be in scope")
	}
	if Analyzer.Match("schemanet/internal/core") {
		t.Error("core holds no Session locks; out of scope")
	}
}
