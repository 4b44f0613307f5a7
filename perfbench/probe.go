package main

import (
	"fmt"

	"tapeworm"
	"tapeworm/internal/cache"
	"tapeworm/internal/cache2000"
	"tapeworm/internal/core"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mach"
	"tapeworm/internal/mem"
	"tapeworm/internal/workload"
)

// gridConfigs returns the sweep grid's simulator configurations, in the
// order experiment.Sweep builds them.
func gridConfigs() []core.Config {
	g := sweepGrid("")
	var out []core.Config
	for _, size := range g.Sizes {
		for _, assoc := range g.Assocs {
			for _, line := range g.Lines {
				out = append(out, core.Config{
					Mode:     core.ModeICache,
					Cache:    cache.Config{Size: size, LineSize: line, Assoc: assoc, Indexing: cache.PhysIndexed},
					Sampling: core.FullSampling(),
				})
			}
		}
	}
	return out
}

// bootKernel boots the machine a sweep run uses (seed and page seed both
// the workload seed, as experiment.Sweep sets them).
func bootKernel(seed uint64) (*kernel.Kernel, error) {
	kcfg := kernel.DefaultConfig(mach.DECstation5000_200(frames), seed)
	kcfg.PageSeed = seed
	return kernel.Boot(kcfg)
}

// probe repeats one sweep's execution as separate calls into each layer,
// each under its own span: plan the user stream, drain it with no
// machine, then a bare run, a one-member gang run, the full-grid gang run
// and a trace-driven run. It returns the layer counts; rec keeps the spans.
func probe(spec workload.Spec, seed uint64, rec *recorder) (map[string]float64, error) {
	c := map[string]float64{}
	root := rec.start("probe."+spec.Name, 0)
	defer rec.end(root)
	secs := func(s span) float64 { return float64(s.dur()) / 1e9 }

	var prog kernel.Program
	if err := rec.timed("workload.plan", root, func() (err error) {
		prog, err = workload.NewPlanned(spec, seed)
		return err
	}); err != nil {
		return nil, err
	}
	planned, _ := rec.find("workload.plan", root)
	c["workload.plan_s"] = secs(planned)
	c["workload.plan_refused"], c["workload.plan_ops"] = 1, 0
	if _, compiled := prog.(*workload.Compiled); compiled {
		tree, err := workload.PlannedOps(spec, seed)
		if err != nil {
			return nil, err
		}
		c["workload.plan_refused"], c["workload.plan_ops"] = 0, float64(treeOps(tree))
	}

	var refs uint64
	if err := rec.timed("workload.drain", root, func() (err error) {
		refs, err = drain(spec, seed)
		return err
	}); err != nil {
		return nil, err
	}
	drained, _ := rec.find("workload.drain", root)
	c["workload.drain_refs_per_s"] = ratio(float64(refs), secs(drained))

	// runOnce boots, attaches a gang of cfgs (none: a bare run), spawns
	// the workload and runs it, each step a span under a span named
	// name. The caller reads the results and releases the buffers.
	runOnce := func(name string, cfgs []core.Config) (*kernel.Kernel, *core.Gang, error) {
		id := rec.start(name, root)
		defer rec.end(id)
		var k *kernel.Kernel
		var g *core.Gang
		err := rec.timed("kernel.boot", id, func() (err error) {
			k, err = bootKernel(seed)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		if len(cfgs) > 0 {
			err = rec.timed("core.attach", id, func() (err error) {
				g, err = core.AttachGang(k, cfgs)
				return err
			})
		}
		var p kernel.Program
		if err == nil {
			p, err = workload.NewPlanned(spec, seed)
		}
		if err == nil {
			k.Spawn(spec.Name, p, g != nil, g != nil)
			err = rec.timed("kernel.run", id, func() error { return k.Run(0) })
		}
		if err != nil {
			k.ReleaseBuffers()
			return nil, nil, err
		}
		return k, g, nil
	}
	runSecs := func(name string) float64 {
		run, _ := rec.find(name, root)
		s, _ := rec.find("kernel.run", run.ID)
		return secs(s)
	}

	k, _, err := runOnce("run.bare", nil)
	if err != nil {
		return nil, fmt.Errorf("bare run: %w", err)
	}
	ci := k.ComponentInstructions()
	k.ReleaseBuffers()
	c["kernel.instr_user"] = float64(ci[kernel.CompUser])
	c["kernel.instr_kernel"] = float64(ci[kernel.CompKernel])
	c["kernel.instr_server"] = float64(ci[kernel.CompServer])
	bareRun, _ := rec.find("run.bare", root)
	boot, _ := rec.find("kernel.boot", bareRun.ID)
	c["kernel.boot_s"] = secs(boot)
	bare := runSecs("run.bare")
	c["kernel.run_bare_s"] = bare
	c["kernel.ns_per_instr_bare"] = ratio(bare*1e9, float64(ci[kernel.CompUser]+ci[kernel.CompKernel]+ci[kernel.CompServer]))

	cfgs := gridConfigs()
	k, _, err = runOnce("run.solo", cfgs[:1])
	if err != nil {
		return nil, fmt.Errorf("solo run: %w", err)
	}
	k.ReleaseBuffers()

	k, g, err := runOnce("run.gang", cfgs)
	if err != nil {
		return nil, fmt.Errorf("gang run: %w", err)
	}
	var misses, handler uint64
	for _, tw := range g.Members() {
		st := tw.Stats()
		misses += st.Misses
		handler += st.HandlerCycles
	}
	m := k.Machine()
	xl, words := m.FastPathStats()
	mc := m.Counters()
	c["mach.xl_hits"] = float64(xl)
	c["mach.fastpath_words"] = float64(words)
	c["mach.fastpath_share"] = ratio(float64(words), float64(m.Instructions()))
	c["mach.ecc_traps"] = float64(mc.ECCTraps)
	c["mach.host_tlb_misses"] = float64(mc.HostTLBMisses)
	c["mach.page_faults"] = float64(mc.PageFaults)
	k.ReleaseBuffers()

	solo, gang := runSecs("run.solo"), runSecs("run.gang")
	c["core.misses"] = float64(misses)
	c["core.handler_cycles"] = float64(handler)
	c["core.run_solo_s"] = solo
	c["core.run_gang_s"] = gang
	c["core.trap_s"] = gang - bare
	c["core.member_marginal_s"] = (gang - solo) / float64(len(cfgs)-1)
	c["core.ns_per_miss"] = ratio((gang-bare)*1e9, float64(misses))

	id := rec.start("run.trace", root)
	sim, err := traceDriven(spec, seed, cfgs[0].Cache, rec, id)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("trace-driven run: %w", err)
	}
	c["cache2000.refs"] = float64(sim.Hits() + sim.Misses())
	c["cache2000.trace_s"] = runSecs("run.trace") - bare
	return c, nil
}

// traceDriven runs spec annotated by Pixie on the fly into a Cache2000
// simulation of the I-cache geom, through the facade: the paper's
// trace-driven baseline. With rec non-nil, boot, annotation and the run
// are spans under parent.
func traceDriven(spec workload.Spec, seed uint64, geom cache.Config, rec *recorder, parent int) (*tapeworm.TraceSim, error) {
	var sys *tapeworm.System
	if err := rec.timed("kernel.boot", parent, func() (err error) {
		sys, err = tapeworm.NewSystem(tapeworm.SystemConfig{
			Machine: tapeworm.DECstation(frames), Seed: seed, PageSeed: seed,
		})
		return err
	}); err != nil {
		return nil, err
	}
	defer sys.Kernel().ReleaseBuffers()
	p, err := workload.NewPlanned(spec, seed)
	if err != nil {
		return nil, err
	}
	task := sys.SpawnProgram(spec.Name, p, false, false)
	var sim *tapeworm.TraceSim
	if err := rec.timed("pixie.annotate", parent, func() (err error) {
		sim, err = sys.AnnotatePixie(task, cache2000.Config{Cache: geom, Kinds: []mem.RefKind{mem.IFetch}})
		return err
	}); err != nil {
		return nil, err
	}
	if err := rec.timed("kernel.run", parent, func() error { return sys.Run(0) }); err != nil {
		return nil, err
	}
	return sim, nil
}

// treeOps counts the compiled ops of a program and its fork children.
func treeOps(t workload.OpTree) int {
	n := len(t.Ops())
	for i := 0; i < t.NumChildren(); i++ {
		n += treeOps(t.Child(i))
	}
	return n
}

// drain pulls spec's user stream, fork children included, through
// NextRun with no machine attached, and returns the references it saw.
func drain(spec workload.Spec, seed uint64) (uint64, error) {
	p, err := workload.NewPlanned(spec, seed)
	if err != nil {
		return 0, err
	}
	var refs uint64
	queue := []kernel.Program{p}
	for len(queue) > 0 {
		bp, ok := queue[0].(kernel.BatchProgram)
		if !ok {
			return 0, fmt.Errorf("program %T has no NextRun", queue[0])
		}
		queue = queue[1:]
		for {
			_, n, ev := bp.NextRun(kernel.CompiledRunCap)
			if n > 0 {
				refs += uint64(n)
				continue
			}
			if ev.Kind == kernel.EvRef {
				refs++
			}
			if ev.Kind == kernel.EvFork {
				queue = append(queue, ev.Child)
			}
			if ev.Kind == kernel.EvExit {
				break
			}
		}
	}
	return refs, nil
}

// trapEqualsTrace is the paper's Section 4.2 accuracy argument as a
// check: on a user-only, virtually indexed, unsampled configuration,
// where time dilation cannot act, Tapeworm's trap-driven miss count must
// equal the trace-driven (Pixie + Cache2000) count for the same stream.
func trapEqualsTrace(spec workload.Spec, seed uint64) error {
	geom := cache.Config{Size: 4 << 10, LineSize: 16, Assoc: 1, Indexing: cache.VirtIndexed}

	k, err := bootKernel(seed)
	if err != nil {
		return err
	}
	defer k.ReleaseBuffers()
	tw, err := core.Attach(k, core.Config{Mode: core.ModeICache, Cache: geom, Sampling: core.FullSampling()})
	if err != nil {
		return err
	}
	p, err := workload.NewPlanned(spec, seed)
	if err != nil {
		return err
	}
	k.Spawn(spec.Name, p, true, true)
	if err := k.Run(0); err != nil {
		return err
	}

	sim, err := traceDriven(spec, seed, geom, nil, 0)
	if err != nil {
		return err
	}
	if tw.Misses() != sim.Misses() {
		return fmt.Errorf("%s seed %d: Tapeworm %d misses, Cache2000 %d misses",
			spec.Name, seed, tw.Misses(), sim.Misses())
	}
	return nil
}
