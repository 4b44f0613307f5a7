// Portability: the Section 4.3/4.4 story. Tapeworm's machine-dependent
// layer is two primitives (tw_set_trap, tw_clear_trap) chosen from what a
// host offers (Table 12). This example attaches the same simulations to
// three machine models and shows which configurations each port can and
// cannot express — including the DECstation's no-allocate-on-write policy
// defeating data-cache simulation.
package main

import (
	"fmt"
	"log"

	"tapeworm"
)

func attach(machine tapeworm.MachineConfig, label string, cfg tapeworm.SimConfig, workload string) {
	sys, err := tapeworm.NewSystem(tapeworm.SystemConfig{Machine: machine, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Kernel().ReleaseBuffers()
	tw, err := sys.AttachTapeworm(cfg)
	if err != nil {
		fmt.Printf("    %-10s -> NOT SUPPORTED: %v\n", label, err)
		return
	}
	if _, err := sys.LoadWorkload(workload, 2000, 3, true); err != nil {
		log.Fatal(err)
	}
	if err := sys.Run(0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("    %-10s -> ok via %s: %d misses\n", label, tw.MechanismName(), tw.Misses())
}

func main() {
	icache := tapeworm.SimConfig{
		Mode: tapeworm.ModeICache,
		Cache: tapeworm.CacheConfig{Size: 8 << 10, LineSize: 16, Assoc: 1,
			Indexing: tapeworm.VirtIndexed},
		Sampling: tapeworm.FullSampling(),
	}
	dcache := icache
	dcache.Mode = tapeworm.ModeDCache
	tlb := tapeworm.SimConfig{
		Mode:     tapeworm.ModeTLB,
		TLB:      tapeworm.TLBConfig{Entries: 32, PageSize: 4096, Replace: tapeworm.LRU},
		Sampling: tapeworm.FullSampling(),
	}

	superTLB := tlb
	superTLB.TLB.PageSize = 16384

	machines := []struct {
		name string
		cfg  tapeworm.MachineConfig
	}{
		{"DECstation 5000/200 (R3000, ECC, no-allocate-on-write)", tapeworm.DECstation(4096)},
		{"DECstation 5000/240 (R4000, variable pages, hostile DMA)", tapeworm.DECstation240(4096)},
		{"Gateway 486 (no ECC diagnostics)", tapeworm.Gateway486(4096)},
		{"CM-5 node (SPARC, allocate-on-write)", tapeworm.WWTNode(4096)},
	}
	for _, m := range machines {
		fmt.Printf("\n%s:\n", m.name)
		attach(m.cfg, "icache", icache, "espresso")
		attach(m.cfg, "dcache", dcache, "eqntott")
		attach(m.cfg, "tlb-4K", tlb, "espresso")
		attach(m.cfg, "tlb-16K", superTLB, "espresso")
	}
	fmt.Println("\nOnly tw_set_trap/tw_clear_trap change between ports; the rest of")
	fmt.Println("Tapeworm is machine-independent (under 5% of the code, Table 11).")
}
