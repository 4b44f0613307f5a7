package pairing_test

import (
	"testing"

	"tapeworm/internal/analysis/analysistest"
	"tapeworm/internal/analysis/passes/pairing"
)

func TestPairing(t *testing.T) {
	analysistest.Run(t, pairing.Analyzer, "pair")
}

// TestPairingRefChunkSummary checks the hierarchical trap-refcount
// summary pair against a stand-in package declared under the real import
// path, so the fully qualified method names match.
func TestPairingRefChunkSummary(t *testing.T) {
	analysistest.Run(t, pairing.Analyzer, "tapeworm/internal/mem")
}

// TestPairingResultCacheClaim checks the result-cache Acquire/Release
// pair (Complete publishes a value but is not the release) against a
// stand-in package under the real import path.
func TestPairingResultCacheClaim(t *testing.T) {
	analysistest.Run(t, pairing.Analyzer, "tapeworm/internal/resultcache")
}

// TestPairingCheckpointFork checks the checkpoint fork lifecycle —
// Fork/ForkRun acquire, ReleaseBuffers releases, //twvet:transfer
// moves ownership — against a stand-in kernel under the real import
// path.
func TestPairingCheckpointFork(t *testing.T) {
	analysistest.Run(t, pairing.Analyzer, "tapeworm/internal/kernel")
}

// TestPairingCrossPackageFacts drives the inter-procedural engine across
// a package boundary: factdep/lib wraps the kernel stand-in's fork and
// exports TransfersOwnership/ReleasesResource facts; factdep/use leaks a
// fork it can only see through those facts.
func TestPairingCrossPackageFacts(t *testing.T) {
	analysistest.Run(t, pairing.Analyzer,
		"tapeworm/internal/kernel", "factdep/lib", "factdep/use")
}
