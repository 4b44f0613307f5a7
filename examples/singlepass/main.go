// Singlepass: the flexibility flip-side. A captured Pixie trace can feed a
// single-pass stack-algorithm simulator [Mattson70] that yields the miss
// count of EVERY associativity in one traversal — something trap-driven
// simulation cannot do (one configuration per run). The price is the usual
// trace-driven one: a single user task, no kernel or servers, and per-
// address processing cost. This example shows both sides.
package main

import (
	"fmt"
	"log"

	"tapeworm"
	"tapeworm/internal/stackdist"
)

func main() {
	const (
		scale   = 800
		seed    = 31
		numSets = 64 // 64 sets x 16B lines: the 1K..32K family
	)

	// Capture an instruction trace of espresso once.
	sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Kernel().ReleaseBuffers()
	task, err := sys.LoadWorkload("espresso", scale, seed, false)
	if err != nil {
		log.Fatal(err)
	}
	buf, err := sys.CaptureTrace(task, true)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Run(0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %d instruction fetches from espresso\n\n", buf.Len())

	// One pass over the trace yields the whole LRU family at once.
	s := stackdist.MustNew(stackdist.Config{LineSize: 16, NumSets: numSets})
	s.Run(buf)

	fmt.Printf("one stack-algorithm pass, %d-set 16B-line LRU family:\n", numSets)
	fmt.Printf("%10s %8s %10s %12s\n", "capacity", "ways", "misses", "miss ratio")
	for _, p := range s.Curve(32) {
		if p.Ways&(p.Ways-1) != 0 {
			continue // print powers of two only
		}
		fmt.Printf("%9dK %8d %10d %12.4f\n",
			p.CapacityBytes>>10, p.Ways, p.Misses,
			float64(p.Misses)/float64(s.Refs()))
	}

	// Cross-check one point against a trap-driven run of the same cache.
	sys2, err := tapeworm.NewSystem(tapeworm.SystemConfig{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	defer sys2.Kernel().ReleaseBuffers()
	tw, err := sys2.AttachTapeworm(tapeworm.SimConfig{
		Mode: tapeworm.ModeICache,
		Cache: tapeworm.CacheConfig{
			Size: numSets * 2 * 16, LineSize: 16, Assoc: 2,
			Indexing: tapeworm.VirtIndexed,
		},
		Sampling: tapeworm.FullSampling(),
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys2.LoadWorkload("espresso", scale, seed, true); err != nil {
		log.Fatal(err)
	}
	if err := sys2.Run(0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncross-check at 2 ways: stack-LRU %d misses, trap-driven %d misses\n",
		s.MissesAt(2), tw.Misses())
	fmt.Println("The gap is real and inherent: hits never reach a trap-driven")
	fmt.Println("simulator, so it cannot maintain true LRU — its associative")
	fmt.Println("replacement is insertion-order (FIFO), and it needed one full")
	fmt.Println("run for this single point where the stack pass got them all.")
}
