// TLB study: Tapeworm began life as a trap-driven TLB simulator
// [Nagle93, Uhlig94a], using page valid bits to trap on pages absent from
// a simulated TLB. This example sweeps TLB sizes for an OS-intensive
// workload, the kind of design-tradeoff study those papers ran on
// software-managed TLBs.
package main

import (
	"fmt"
	"log"

	"tapeworm"
)

func main() {
	const (
		scale = 400
		seed  = 23
	)

	fmt.Println("ousterhout benchmark suite, simulated TLB sweep (4K pages, LRU):")
	fmt.Printf("%8s %12s %16s\n", "entries", "TLB misses", "misses/1K instr")
	for _, entries := range []int{8, 16, 32, 64, 128, 256} {
		sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: seed})
		if err != nil {
			log.Fatal(err)
		}
		tw, err := sys.AttachTapeworm(tapeworm.SimConfig{
			Mode: tapeworm.ModeTLB,
			TLB: tapeworm.TLBConfig{
				Entries: entries, PageSize: 4096, Replace: tapeworm.LRU,
			},
			Sampling: tapeworm.FullSampling(),
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sys.LoadWorkload("ousterhout", scale, seed, true); err != nil {
			log.Fatal(err)
		}
		if err := sys.Run(0); err != nil {
			log.Fatal(err)
		}
		snap := sys.Monitor()
		fmt.Printf("%8d %12d %16.3f\n", entries, tw.Misses(),
			1000*float64(tw.Misses())/float64(snap.Instructions))
		sys.Kernel().ReleaseBuffers()
	}

	fmt.Println("\nNote: kernel kseg0 is not TLB-mapped on the R3000, so the")
	fmt.Println("simulated TLB covers user and server tasks, as on the real machine.")
}
