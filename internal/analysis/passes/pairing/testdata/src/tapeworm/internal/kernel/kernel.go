// Package kernel is a golden-test stand-in for the real
// tapeworm/internal/kernel: it redeclares the checkpoint fork lifecycle
// (Fork, ForkRun, ReleaseBuffers) under the same import path, so the
// pairing analyzer's fully-qualified name matching sees the genuine
// kernel-buffer pair without the test depending on the real kernel's
// internals.
package kernel

import "errors"

// Checkpoint mirrors the real frozen kernel image.
type Checkpoint struct{ midrun bool }

// Config mirrors the real kernel configuration.
type Config struct{}

// Kernel mirrors the real kernel handle.
type Kernel struct{}

// ProgramCursor mirrors the real resumable stream position.
type ProgramCursor struct{}

// Program mirrors the real task program.
type Program interface{}

// ProgramResume mirrors the real cursor-rebuild callback.
type ProgramResume func(ProgramCursor) (Program, error)

// Fork mirrors the real post-boot fork: the returned kernel owns pooled
// buffers until ReleaseBuffers.
func Fork(cp *Checkpoint, cfg Config) (*Kernel, error) {
	if cp == nil {
		return nil, errors.New("nil checkpoint")
	}
	return &Kernel{}, nil
}

// ForkRun mirrors the real mid-run fork: same ownership as Fork, plus
// cursor resumption.
func ForkRun(cp *Checkpoint, cfg Config, resume ProgramResume) (*Kernel, error) {
	if !cp.midrun {
		return nil, errors.New("no run state")
	}
	return &Kernel{}, nil
}

// ReleaseBuffers mirrors the real pooled-buffer teardown.
func (k *Kernel) ReleaseBuffers() {}

// Run mirrors the real run loop.
func (k *Kernel) Run(n int) {}

// forkRunBalanced is the documented replay protocol: the forked kernel
// released by defer on every path, including the error returns after
// the fork succeeded.
func forkRunBalanced(cp *Checkpoint, cfg Config, resume ProgramResume) error {
	fk, err := ForkRun(cp, cfg, resume)
	if err != nil {
		return err
	}
	defer fk.ReleaseBuffers()
	fk.Run(1000)
	return nil
}

// forkRunLeakedOnError releases on the happy path only: the early
// return after a successful fork leaks the pooled buffers.
func forkRunLeakedOnError(cp *Checkpoint, cfg Config, resume ProgramResume, bad bool) error {
	fk, err := ForkRun(cp, cfg, resume)
	if err != nil {
		return err
	}
	if bad {
		return errors.New("window diverged") // want `kernel boot buffers acquired but not released`
	}
	fk.Run(1000)
	fk.ReleaseBuffers()
	return nil
}

// forkRunNeverReleased forgets the release entirely. It returns only the
// run error — a function returning the kernel itself would be an
// ownership-transfer shape the facts engine proves instead of flagging.
func forkRunNeverReleased(cp *Checkpoint, cfg Config, resume ProgramResume) error {
	fk, err := ForkRun(cp, cfg, resume)
	if err != nil {
		return err
	}
	fk.Run(1000)
	return nil // want `kernel boot buffers acquired but not released`
}

// forkRunTransfer hands the forked kernel to its caller — the real
// ForkRun wrapper shape. The annotation is now redundant: every exit
// hands back the same surplus with a non-error carrier, so the facts
// engine proves the transfer and asks for the directive's deletion.
//
//twvet:transfer — ownership moves to the caller.
func forkRunTransfer(cp *Checkpoint, cfg Config, resume ProgramResume) (*Kernel, error) { // want `ownership transfer by forkRunTransfer is provable inter-procedurally`
	return ForkRun(cp, cfg, resume)
}

// parked holds a forked kernel released at sweep teardown, outside any
// caller's view.
var parked *Kernel

// forkRunParked parks the forked kernel in package state: the caller
// cannot see the acquisition and no result carries it, so the engine
// cannot prove the transfer and the annotation is load-bearing.
//
//twvet:transfer
func forkRunParked(cp *Checkpoint, cfg Config, resume ProgramResume) error {
	fk, err := ForkRun(cp, cfg, resume)
	if err != nil {
		return err
	}
	parked = fk
	return nil
}

var _ = forkRunBalanced
var _ = forkRunLeakedOnError
var _ = forkRunNeverReleased
var _ = forkRunTransfer
var _ = forkRunParked
