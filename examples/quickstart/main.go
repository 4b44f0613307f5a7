// Quickstart: simulate mpeg_play's instruction cache with Tapeworm and
// compare the cost of trap-driven simulation against an uninstrumented
// run — the core Figure 1 / Figure 2 experience in thirty lines.
package main

import (
	"fmt"
	"log"

	"tapeworm"
)

func main() {
	const (
		scale = 400 // 1/400 of the paper's instruction counts
		seed  = 42
	)

	// First, an uninstrumented run to establish normal run time.
	normal, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	defer normal.Kernel().ReleaseBuffers()
	if _, err := normal.LoadWorkload("mpeg_play", scale, seed, false); err != nil {
		log.Fatal(err)
	}
	if err := normal.Run(0); err != nil {
		log.Fatal(err)
	}
	base := normal.Monitor()
	fmt.Printf("uninstrumented: %d instructions in %.3f simulated seconds\n",
		base.Instructions, normal.Seconds())

	// Now the same workload with Tapeworm simulating a 16 KB direct-mapped
	// instruction cache. Traps drive the simulation: hits run at full
	// hardware speed and only misses enter the simulator.
	sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Kernel().ReleaseBuffers()
	tw, err := sys.AttachTapeworm(tapeworm.SimConfig{
		Mode: tapeworm.ModeICache,
		Cache: tapeworm.CacheConfig{
			Size: 16 << 10, LineSize: 16, Assoc: 1,
			Indexing: tapeworm.PhysIndexed,
		},
		Sampling: tapeworm.FullSampling(),
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.LoadWorkload("mpeg_play", scale, seed, true); err != nil {
		log.Fatal(err)
	}
	if err := sys.Run(0); err != nil {
		log.Fatal(err)
	}

	inst := sys.Monitor()
	fmt.Printf("with Tapeworm:  %d I-cache misses via %s\n",
		tw.Misses(), tw.MechanismName())
	fmt.Printf("                miss ratio %.4f (per workload instruction)\n",
		float64(tw.Misses())/float64(inst.Instructions))
	fmt.Printf("                slowdown %.2fx (paper: under 10x below 10%% miss ratios)\n",
		tapeworm.Slowdown(inst, base))
}
