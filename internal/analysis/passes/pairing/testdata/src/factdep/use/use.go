// Package use consumes factdep/lib: none of the pairing table's
// primitives appear in this file, so every diagnostic here depends on the
// TransfersOwnership/ReleasesResource facts imported from lib.
package use

import (
	"tapeworm/internal/kernel"

	"factdep/lib"
)

// replayBalanced forks through lib and releases through lib: balanced
// purely by imported facts.
func replayBalanced(cp *kernel.Checkpoint, cfg kernel.Config, resume kernel.ProgramResume) {
	fk := lib.MustFork(cp, cfg, resume)
	fk.Run(1000)
	lib.Scrap(fk)
}

// replayLeaked forgets the release: the acquisition is only visible via
// lib.MustFork's fact.
func replayLeaked(cp *kernel.Checkpoint, cfg kernel.Config, resume kernel.ProgramResume) {
	fk := lib.MustFork(cp, cfg, resume)
	fk.Run(1000)
} // want `kernel boot buffers acquired but not released`

var _ = replayBalanced
var _ = replayLeaked
