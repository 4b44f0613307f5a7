// Multitask: the completeness argument of the paper's introduction. An
// OS-intensive workload (sdet: 281 forked tasks, heavy kernel and BSD
// server traffic) is simulated three ways: user tasks only (all a
// trace-driven Pixie setup could see), then with servers, then with the
// kernel included. Only the last view shows where the misses really are
// (Table 6).
package main

import (
	"fmt"
	"log"

	"tapeworm"
	"tapeworm/internal/kernel"
	"tapeworm/internal/mem"
)

func run(simUser, simServers, simKernel bool) (misses uint64, byComp [3]uint64, instr uint64) {
	const scale, seed = 400, 7
	sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Kernel().ReleaseBuffers()
	tw, err := sys.AttachTapeworm(tapeworm.SimConfig{
		Mode: tapeworm.ModeICache,
		Cache: tapeworm.CacheConfig{
			Size: 4 << 10, LineSize: 16, Assoc: 1,
			Indexing: tapeworm.PhysIndexed,
		},
		Sampling: tapeworm.FullSampling(),
	})
	if err != nil {
		log.Fatal(err)
	}
	// The workload's fork tree inherits the simulate attribute:
	// (simulate=1, inherit=1) covers all 281 sdet tasks automatically.
	if _, err := sys.LoadWorkload("sdet", scale, seed, simUser); err != nil {
		log.Fatal(err)
	}
	// Server and kernel attributes are set explicitly (tw_attributes).
	if simServers {
		for _, kind := range []kernel.ServerKind{kernel.BSDServer, kernel.XServer} {
			if t := sys.Kernel().Server(kind); t != nil {
				if err := tw.Attributes(t.ID, true, false); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	if simKernel {
		if err := tw.Attributes(mem.KernelTask, true, false); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.Run(0); err != nil {
		log.Fatal(err)
	}
	return tw.Misses(), tw.MissesByComponent(), sys.Monitor().Instructions
}

func main() {
	fmt.Println("sdet in a 4K direct-mapped I-cache, three views:")

	userOnly, _, instr := run(true, false, false)
	fmt.Printf("\n  user tasks only (what a Pixie-style tracer can see):\n")
	fmt.Printf("    %8d misses  (ratio %.4f)\n", userOnly, ratio(userOnly, instr))

	withServers, comp, instr := run(true, true, false)
	fmt.Printf("\n  + BSD and X server tasks:\n")
	fmt.Printf("    %8d misses  (user %d, servers %d)\n",
		withServers, comp[kernel.CompUser], comp[kernel.CompServer])

	all, comp, instr := run(true, true, true)
	fmt.Printf("\n  + the OS kernel itself (all activity):\n")
	fmt.Printf("    %8d misses  (user %d, servers %d, kernel %d)\n",
		all, comp[kernel.CompUser], comp[kernel.CompServer], comp[kernel.CompKernel])
	fmt.Printf("    total miss ratio %.4f\n", ratio(all, instr))

	fmt.Printf("\nA user-task-only simulator underestimates sdet's miss ratio by %.0fx.\n",
		float64(all)/float64(userOnly))
}

func ratio(m, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(m) / float64(n)
}
