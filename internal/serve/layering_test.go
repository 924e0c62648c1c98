package serve

import (
	"go/build"
	"slices"
	"testing"
)

// TestServeRunsNoTransmitPolicy pins the collection plane's layering: agents
// decide transmissions at the edge, and the central node takes what arrived
// through core.System.StepArrivals, so the package's non-test code imports
// no transmission policy.
func TestServeRunsNoTransmitPolicy(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(pkg.Imports, "orcf/internal/core") {
		t.Fatalf("non-test imports %v lack orcf/internal/core: not the package's own imports", pkg.Imports)
	}
	if slices.Contains(pkg.Imports, "orcf/internal/transmit") {
		t.Fatalf("non-test code imports orcf/internal/transmit: %v", pkg.Imports)
	}
}
