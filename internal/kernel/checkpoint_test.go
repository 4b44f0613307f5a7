package kernel

import (
	"errors"
	"reflect"
	"testing"

	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
)

// ckProgram builds a workload that exercises every piece of state a
// checkpoint must carry: kernel walkers (syscalls), both servers, VM
// faults across text and data pages, and a fork (task tree, frame
// refcounts, task-ID allocation).
func ckProgram() Program {
	events := refs(TextBase, 3000)
	events = append(events,
		Event{Kind: EvSyscall, Service: SvcRead},
		Event{Kind: EvSyscall, Service: SvcBSDFile},
		Event{Kind: EvSyscall, Service: SvcXRender},
	)
	for i := 0; i < 64; i++ {
		events = append(events, Event{Kind: EvRef,
			Ref: mem.Ref{VA: DataBase + mem.VAddr(i*4096), Kind: mem.Load}})
	}
	child := &scriptProgram{events: refs(TextBase, 2000)}
	events = append(events, Event{Kind: EvFork, Child: child, ShareText: true})
	events = append(events, refs(TextBase+0x4000, 2000)...)
	return &scriptProgram{events: events}
}

// ckState is the observable outcome of a finished run, comparable with a
// single !=; ckSnapshot returns the full trap tables beside it.
type ckState struct {
	cycles   uint64
	instret  uint64
	counters mach.Counters
	comp     [NumComponents]uint64
	kstats   Stats
}

func ckSnapshot(k *Kernel) (ckState, *mem.Image) {
	st := ckState{
		cycles:   k.Machine().Cycles(),
		instret:  k.Machine().Instructions(),
		counters: k.Machine().Counters(),
		comp:     k.ComponentInstructions(),
		kstats:   k.Stats(),
	}
	return st, mem.CaptureImage(k.Machine().Phys())
}

func ckConfig(frames int, seed uint64) Config {
	cfg := DefaultConfig(mach.DECstation5000_200(frames), seed)
	cfg.PageSeed = seed * 31
	return cfg
}

// postBoot checkpoints a freshly booted kernel of cfg and releases the
// capture kernel, so every fork below starts from a boot image alone.
func postBoot(t *testing.T, cfg Config) *Checkpoint {
	t.Helper()
	src := MustBoot(cfg)
	cp, err := CaptureAt(src, "post-boot")
	if err != nil {
		t.Fatal(err)
	}
	src.ReleaseBuffers()
	return cp
}

// runToEnd spawns the canonical program and drives it to completion.
func runToEnd(t *testing.T, k *Kernel) {
	t.Helper()
	k.Spawn("ck", ckProgram(), true, true)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestForkMatchesBoot is the core identity contract: a forked kernel runs
// a workload to a byte-identical outcome (machine counters, component
// attribution, task accounting, and the full physical trap tables) as a
// freshly booted kernel with the same configuration.
func TestForkMatchesBoot(t *testing.T) {
	cfg := ckConfig(2048, 7)

	fresh := MustBoot(cfg)
	runToEnd(t, fresh)
	wantState, wantPhys := ckSnapshot(fresh)
	fresh.ReleaseBuffers()

	cp := postBoot(t, cfg)

	// Two successive forks, to prove forks are independent of each other
	// and of the (already released) capture kernel.
	for i := 0; i < 2; i++ {
		fk, err := Fork(cp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runToEnd(t, fk)
		gotState, gotPhys := ckSnapshot(fk)
		if gotState != wantState {
			t.Fatalf("fork %d diverged from fresh boot:\nfork:  %+v\nfresh: %+v", i, gotState, wantState)
		}
		if !reflect.DeepEqual(gotPhys, wantPhys) {
			t.Fatalf("fork %d: physical trap tables differ from fresh boot", i)
		}
		fk.ReleaseBuffers()
	}
	if wantState.instret == 0 || wantState.cycles == 0 {
		t.Fatalf("scenario executed nothing: %+v", wantState)
	}
}

// TestForkRuntimeOptionsMayDiffer pins which configuration knobs are
// identity (must match the capture) and which are runtime-only: a fork
// with the fast path disabled must still work — and still match a fresh
// no-fast-path boot exactly.
func TestForkRuntimeOptionsMayDiffer(t *testing.T) {
	cfg := ckConfig(2048, 7)
	cp := postBoot(t, cfg)

	slow := cfg
	slow.Machine.NoFastPath = true

	fresh := MustBoot(slow)
	runToEnd(t, fresh)
	wantState, wantPhys := ckSnapshot(fresh)
	fresh.ReleaseBuffers()

	fk, err := Fork(cp, slow)
	if err != nil {
		t.Fatal(err)
	}
	runToEnd(t, fk)
	gotState, gotPhys := ckSnapshot(fk)
	fk.ReleaseBuffers()
	if gotState != wantState || !reflect.DeepEqual(gotPhys, wantPhys) {
		t.Fatalf("no-fast-path fork diverged:\nfork:  %+v\nfresh: %+v", gotState, wantState)
	}
}

func TestForkRejectsMismatchedConfig(t *testing.T) {
	cfg := ckConfig(2048, 7)
	cp := postBoot(t, cfg)

	mutations := map[string]func(*Config){
		"frames":    func(c *Config) { c.Machine = mach.DECstation5000_200(1024) },
		"seed":      func(c *Config) { c.Seed++ },
		"page seed": func(c *Config) { c.PageSeed++ },
		"tw frames": func(c *Config) { c.TapewormFrames++ },
		"x server":  func(c *Config) { c.WithXServer = false },
		"bsd":       func(c *Config) { c.WithBSDServer = false },
	}
	for name, mutate := range mutations {
		bad := cfg
		mutate(&bad)
		if _, err := Fork(cp, bad); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s mismatch: Fork err = %v, want ErrCheckpointMismatch", name, err)
		}
	}
}
