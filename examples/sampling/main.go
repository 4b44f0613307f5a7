// Sampling: the speed/variance trade-off of set sampling (Section 3.2,
// Figure 3, Table 8). Tapeworm implements set sampling for free by simply
// not arming traps outside the sample, so slowdown falls in direct
// proportion to the sampled fraction — at the price of estimator variance,
// measured here across trials with different sample patterns.
package main

import (
	"fmt"
	"log"

	"tapeworm"
	"tapeworm/internal/stats"
)

func main() {
	const (
		scale  = 800
		seed   = 11
		trials = 8
	)

	// Normal run time for the slowdown denominator.
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

	fmt.Println("mpeg_play, 1K direct-mapped I-cache, set sampling sweep:")
	fmt.Printf("%-9s %10s %14s %10s\n", "sampling", "slowdown", "est. misses", "stddev")
	for _, den := range []int{1, 2, 4, 8, 16} {
		var ests []float64
		var slowSum float64
		for trial := 0; trial < trials; trial++ {
			sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{
				Seed: seed, PageSeed: uint64(trial + 1),
			})
			if err != nil {
				log.Fatal(err)
			}
			tw, err := sys.AttachTapeworm(tapeworm.SimConfig{
				Mode: tapeworm.ModeICache,
				Cache: tapeworm.CacheConfig{
					Size: 1 << 10, LineSize: 16, Assoc: 1,
					Indexing: tapeworm.PhysIndexed,
				},
				// Different trials sample different sets: rotating the
				// trap pattern is all it takes (no trace reprocessing).
				Sampling: tapeworm.Sampling{Num: 1, Den: den, Offset: trial * den / trials},
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
			ests = append(ests, tw.EstimatedMisses())
			slowSum += tapeworm.Slowdown(sys.Monitor(), base)
			sys.Kernel().ReleaseBuffers()
		}
		sum := stats.Summarize(ests)
		fmt.Printf("1/%-7d %9.2fx %14.0f %9.0f (%.0f%%)\n",
			den, slowSum/trials, sum.Mean, sum.Stddev, sum.StddevPct())
	}
	fmt.Println("\nslowdown falls with the sampled fraction; variance rises (Table 8).")
}
