// Continuous: the paper's Section 5 outlook — "simulations can be driven
// by the memory references generated during an actual user's session,
// because Tapeworm slowdowns can be made imperceptible... This makes it
// possible to watch for interesting cases that cannot be identified by
// traditional batch simulations."
//
// This example monitors a running mpeg_play session in time windows,
// printing the simulated I-cache miss rate per window. The workload's
// phase changes (the decoder switching working sets) show up as visible
// swings that a single end-of-run number would average away.
package main

import (
	"fmt"
	"log"
	"strings"

	"tapeworm"
)

func main() {
	const (
		scale   = 200
		seed    = 17
		windows = 24
	)

	sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Kernel().ReleaseBuffers()
	tw, err := sys.AttachTapeworm(tapeworm.SimConfig{
		Mode: tapeworm.ModeICache,
		Cache: tapeworm.CacheConfig{
			Size: 8 << 10, LineSize: 16, Assoc: 1,
			Indexing: tapeworm.PhysIndexed,
		},
		// Light sampling keeps the monitoring overhead imperceptible.
		Sampling: tapeworm.Sampling{Num: 1, Den: 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	spec, err := tapeworm.WorkloadByName("mpeg_play", scale)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.LoadWorkload("mpeg_play", scale, seed, true); err != nil {
		log.Fatal(err)
	}

	step := spec.TotalInstructions() / windows
	fmt.Println("live session monitoring: mpeg_play, 8K I-cache, 1/4 sampling")
	fmt.Printf("%8s %12s %14s  %s\n", "window", "instrs", "est. misses/1K", "")
	var prevMisses float64
	var prevInstr uint64
	for w := 1; ; w++ {
		if err := sys.Run(uint64(w) * step); err != nil {
			log.Fatal(err)
		}
		snap := sys.Monitor()
		misses := tw.EstimatedMisses()
		dm := misses - prevMisses
		di := snap.Instructions - prevInstr
		if di == 0 {
			break // workload finished
		}
		rate := 1000 * dm / float64(di)
		bar := strings.Repeat("#", int(rate*1.5))
		fmt.Printf("%8d %12d %14.2f  %s\n", w, di, rate, bar)
		prevMisses, prevInstr = misses, snap.Instructions
		if sys.Kernel().UserTasksAlive() == 0 {
			break
		}
	}
	fmt.Println("\nPer-window rates expose the decoder's phase behaviour; batch")
	fmt.Println("simulation reports only the average.")
}
