package eval

import (
	"go/build"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestTrustedCoreBoundary: the non-test imports of every TrustedCore
// package stay inside the list (the standard library aside), so the
// monitor's dependency closure is the core's own and shares nothing with
// internal/spec, internal/telemetry or the serving plane.
func TestTrustedCoreBoundary(t *testing.T) {
	for _, pkg := range TrustedCore {
		bp, err := build.ImportDir(filepath.Join("..", pkg), 0)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		for _, imp := range bp.Imports {
			if !strings.HasPrefix(imp, "repro/") {
				continue
			}
			if !slices.Contains(TrustedCore, strings.TrimPrefix(imp, "repro/internal/")) {
				t.Errorf("trusted-core package internal/%s imports %s, outside TrustedCore", pkg, imp)
			}
		}
	}
}
