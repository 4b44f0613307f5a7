package core

import (
	"fmt"
	"reflect"
	"testing"

	"tapeworm/internal/cache"
)

// wideGangConfigs builds n diverse member configurations: a rotating mix
// of cache geometries (sizes, associativities, line sizes, indexing,
// sampling) with every fifth member a TLB simulator, so wide gangs
// exercise both trap mechanisms and the mixed demux paths.
func wideGangConfigs(n int) []Config {
	out := make([]Config, 0, n)
	for i := 0; i < n; i++ {
		if i%5 == 4 {
			out = append(out, Config{
				Mode:     ModeTLB,
				TLB:      cache.TLBConfig{Entries: 8 << (i % 3), PageSize: 4096, Replace: cache.LRU},
				Sampling: FullSampling(),
			})
			continue
		}
		sampling := FullSampling()
		if i%7 == 3 {
			sampling = Sampling{Num: 1, Den: 4}
		}
		idx := cache.PhysIndexed
		if i%2 == 1 {
			idx = cache.VirtIndexed
		}
		out = append(out, Config{
			Mode: ModeICache,
			Cache: cache.Config{
				Size:     4 << (10 + i%4),
				LineSize: 16 << (i % 2),
				Assoc:    1 << (i % 3),
				Indexing: idx,
			},
			Sampling: sampling,
		})
	}
	return out
}

// runDemuxGang boots a fresh machine, attaches cfgs as one gang with the
// chosen demux strategy, optionally detaches members mid-run, finishes the
// workload, and returns every member's results (detached members' frozen)
// plus the final cycle count.
func runDemuxGang(t *testing.T, cfgs []Config, wl string, seed uint64, linear bool, detachAt uint64, detachIdx []int) ([]memberResult, uint64) {
	t.Helper()
	k := bootDEC(t, 11, 13)
	g := MustAttachGang(k, cfgs)
	g.linear = linear
	spawnWorkload(t, k, wl, seed, true)
	if detachAt > 0 {
		if err := k.Run(detachAt); err != nil {
			t.Fatal(err)
		}
		for _, i := range detachIdx {
			if err := g.Detach(g.Members()[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	out := make([]memberResult, 0, len(cfgs))
	for _, tw := range g.Members() {
		out = append(out, memberResult{tw.Stats(), tw.MissesByTask(), tw.LedgerCycles()})
	}
	return out, k.Machine().Cycles()
}

// TestGangDemuxByteIdentityWide checks byte-identity of wide gangs under
// the member-intent bitset demux: at 16 and 32 members, every member's
// statistics must be identical under the bitset walk and the linear probe
// walk, the shared stream must not dilate, and sampled members must match
// their gang-of-1 runs.
func TestGangDemuxByteIdentityWide(t *testing.T) {
	for _, n := range []int{16, 32} {
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			cfgs := wideGangConfigs(n)
			bitset, bitsetCycles := runDemuxGang(t, cfgs, "eqntott", 42, false, 0, nil)
			linear, linearCycles := runDemuxGang(t, cfgs, "eqntott", 42, true, 0, nil)
			if bitsetCycles != linearCycles {
				t.Errorf("shared stream dilated: bitset %d cycles, linear %d", bitsetCycles, linearCycles)
			}
			for i := range cfgs {
				if !reflect.DeepEqual(bitset[i], linear[i]) {
					t.Errorf("member %d diverged between demux strategies:\nbitset: %+v\nlinear: %+v",
						i, bitset[i], linear[i])
				}
			}
			for _, i := range []int{0, n / 2, n - 1} {
				solo, soloCycles := runDemuxGang(t, cfgs[i:i+1], "eqntott", 42, false, 0, nil)
				if !reflect.DeepEqual(solo[0], bitset[i]) {
					t.Errorf("member %d diverged from solo run:\nsolo:   %+v\nganged: %+v",
						i, solo[0], bitset[i])
				}
				if soloCycles != bitsetCycles {
					t.Errorf("member %d: solo %d cycles, ganged %d", i, soloCycles, bitsetCycles)
				}
			}
		})
	}
}

// TestGangDemuxDetachMidRun detaches a cache member and a TLB member
// partway through a 16-member run under the bitset demux: the mask pages
// and invalid-intent masks must shed exactly the detached members' bits,
// so the survivors finish byte-identical to the linear-demux run with the
// same detach schedule, and to their solo runs.
func TestGangDemuxDetachMidRun(t *testing.T) {
	cfgs := wideGangConfigs(16)
	detach := []int{3, 4} // an ICache member and a TLB member
	bitset, bitsetCycles := runDemuxGang(t, cfgs, "espresso", 7, false, 2500, detach)
	linear, linearCycles := runDemuxGang(t, cfgs, "espresso", 7, true, 2500, detach)
	if bitsetCycles != linearCycles {
		t.Errorf("shared stream dilated: bitset %d cycles, linear %d", bitsetCycles, linearCycles)
	}
	for i := range cfgs {
		if !reflect.DeepEqual(bitset[i], linear[i]) {
			t.Errorf("member %d diverged between demux strategies after detach:\nbitset: %+v\nlinear: %+v",
				i, bitset[i], linear[i])
		}
	}
	solo, _ := runDemuxGang(t, cfgs[:1], "espresso", 7, false, 0, nil)
	if !reflect.DeepEqual(solo[0], bitset[0]) {
		t.Errorf("survivor diverged from solo run after detach:\nsolo:   %+v\nganged: %+v",
			solo[0], bitset[0])
	}
}
