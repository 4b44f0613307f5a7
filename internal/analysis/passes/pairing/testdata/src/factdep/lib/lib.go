// Package lib wraps the kernel stand-in's checkpoint fork behind helper
// functions, so the companion package factdep/use can only see the
// acquisition through this package's exported facts — the golden test for
// cross-package fact flow.
package lib

import "tapeworm/internal/kernel"

// MustFork forks and panics on error: every normal exit hands the caller
// the forked kernel, so the pairing engine exports a TransfersOwnership
// fact with no annotation anywhere.
func MustFork(cp *kernel.Checkpoint, cfg kernel.Config, resume kernel.ProgramResume) *kernel.Kernel {
	fk, err := kernel.ForkRun(cp, cfg, resume)
	if err != nil {
		panic(err)
	}
	return fk
}

// Scrap releases a forked kernel through its parameter: the dual
// ReleasesResource fact.
func Scrap(fk *kernel.Kernel) {
	fk.ReleaseBuffers()
}
