package experiment

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tapeworm/internal/resultcache"
)

// The result store is process-wide, so every test below runs at its own
// seed (digest-distinct from every other test and from the parallel
// byte-identity matrices) and calls ResetResultCache before measuring
// cold behaviour.

func sweepGrid() SweepConfig {
	return SweepConfig{
		Workload: "espresso",
		Sizes:    []int{1 << 10, 4 << 10},
		Assocs:   []int{1, 2},
		Lines:    []int{16},
	}
}

func TestOptionsValidateResultCache(t *testing.T) {
	o := QuickOptions()
	o.ResultCacheDir = "/tmp/somewhere"
	if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "requires ResultCache") {
		t.Fatalf("ResultCacheDir without ResultCache: err = %v", err)
	}
	o.ResultCache = true
	if err := o.Validate(); err != nil {
		t.Fatalf("valid result-cache options rejected: %v", err)
	}
	o.ResultCacheDir = "   "
	if err := o.Validate(); err == nil {
		t.Fatal("blank ResultCacheDir accepted")
	}
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	o.ResultCacheDir = file
	if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Fatalf("file as ResultCacheDir: err = %v", err)
	}
}

// TestSweepResultCacheByteIdentity: the sweep table must be byte-identical
// with the cache off, cold, warm, and warm at higher parallelism — and
// the store traffic must be exactly one miss then one hit per run (the
// grid points plus the uninstrumented normal run).
func TestSweepResultCacheByteIdentity(t *testing.T) {
	o := parallelOptions(1)
	o.Trials = 1
	o.Seed = 3001
	sc := sweepGrid()

	off, err := Sweep(o, sc)
	if err != nil {
		t.Fatal(err)
	}

	o.ResultCache = true
	ResetResultCache()
	cold, err := Sweep(o, sc)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Sweep(o, sc)
	if err != nil {
		t.Fatal(err)
	}
	o8 := o
	o8.Parallelism = 8
	warm8, err := Sweep(o8, sc)
	if err != nil {
		t.Fatal(err)
	}

	want := off.Render()
	for name, got := range map[string]string{
		"cold": cold.Render(), "warm": warm.Render(), "warm -parallel 8": warm8.Render(),
	} {
		if got != want {
			t.Errorf("%s render differs from cache-off render:\n--- off ---\n%s\n--- %s ---\n%s",
				name, want, name, got)
		}
	}

	st := ResultCacheStats()
	runs := uint64(sc.Points() + 1) // grid plus the normal run
	if st.Misses != runs {
		t.Errorf("cold misses = %d, want %d", st.Misses, runs)
	}
	if st.Hits != 2*runs {
		t.Errorf("warm hits = %d, want %d (two warm sweeps)", st.Hits, 2*runs)
	}
}

// TestSweepResultCachePartialGang: extending a cached grid simulates only
// the new points — the shared points and the normal run are served from
// the store, and the partial gang's fresh results still match a cache-off
// render of the full grid (gang statistics are independent of gang
// composition).
func TestSweepResultCachePartialGang(t *testing.T) {
	o := parallelOptions(1)
	o.Trials = 1
	o.Seed = 3002

	small := SweepConfig{Workload: "espresso", Sizes: []int{1 << 10}, Assocs: []int{1}, Lines: []int{16}}
	full := SweepConfig{Workload: "espresso", Sizes: []int{1 << 10, 4 << 10}, Assocs: []int{1}, Lines: []int{16}}

	off, err := Sweep(o, full)
	if err != nil {
		t.Fatal(err)
	}

	o.ResultCache = true
	ResetResultCache()
	if _, err := Sweep(o, small); err != nil {
		t.Fatal(err)
	}
	s0 := ResultCacheStats()
	tab, err := Sweep(o, full)
	if err != nil {
		t.Fatal(err)
	}
	s1 := ResultCacheStats()

	if tab.Render() != off.Render() {
		t.Errorf("partial-gang render differs from cache-off render:\n--- off ---\n%s\n--- partial ---\n%s",
			off.Render(), tab.Render())
	}
	newPoints := uint64(full.Points() - small.Points())
	if got := s1.Misses - s0.Misses; got != newPoints {
		t.Errorf("full sweep after small sweep missed %d, want %d (only the new points)", got, newPoints)
	}
	if got := s1.Hits - s0.Hits; got != uint64(small.Points()+1) {
		t.Errorf("full sweep after small sweep hit %d, want %d (shared points + normal run)",
			got, small.Points()+1)
	}
}

// TestSweepResultCacheDirPersistence proves the disk tier end to end: a
// fresh in-process cache pointed at a populated directory serves every
// run by load, rendering identically; and corrupted or foreign files
// surface the store's typed errors through the experiment Options path
// (the twbench/twsweep flag path) instead of silently feeding bad
// results into a table.
func TestSweepResultCacheDirPersistence(t *testing.T) {
	dir := t.TempDir()
	o := parallelOptions(1)
	o.Trials = 1
	o.Seed = 3003
	o.ResultCache = true
	o.ResultCacheDir = dir
	sc := sweepGrid()

	ResetResultCache()
	tab1, err := Sweep(o, sc)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "result-*.rc"))
	if err != nil || len(files) != sc.Points()+1 {
		t.Fatalf("persisted %d result files (err %v), want %d", len(files), err, sc.Points()+1)
	}

	ResetResultCache()
	tab2, err := Sweep(o, sc)
	if err != nil {
		t.Fatal(err)
	}
	if tab1.Render() != tab2.Render() {
		t.Fatal("render from persisted results differs from fresh render")
	}
	if st := ResultCacheStats(); st.Loads != uint64(sc.Points()+1) {
		t.Errorf("reload served %d loads, want %d", st.Loads, sc.Points()+1)
	}

	good, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(t *testing.T, data []byte, want error) {
		t.Helper()
		if err := os.WriteFile(files[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
		ResetResultCache()
		if _, err := Sweep(o, sc); !errors.Is(err, want) {
			t.Fatalf("corrupted store: Sweep err = %v, want %v", err, want)
		}
	}
	t.Run("truncated", func(t *testing.T) {
		corrupt(t, good[:len(good)/2], resultcache.ErrCorrupt)
	})
	t.Run("garbage", func(t *testing.T) {
		corrupt(t, []byte("definitely not a gob stream"), resultcache.ErrCorrupt)
	})
	t.Run("wrong-identity", func(t *testing.T) {
		// A valid file renamed over another digest's slot decodes fine but
		// records the wrong digest: rejected as a mismatch, not corruption.
		other, err := os.ReadFile(files[1])
		if err != nil {
			t.Fatal(err)
		}
		corrupt(t, other, resultcache.ErrMismatch)
	})
	t.Run("recovery", func(t *testing.T) {
		// Removing the bad file leaves a plain miss: the run re-simulates,
		// re-persists, and the table matches the original.
		if err := os.Remove(files[0]); err != nil {
			t.Fatal(err)
		}
		ResetResultCache()
		tab3, err := Sweep(o, sc)
		if err != nil {
			t.Fatal(err)
		}
		if tab3.Render() != tab1.Render() {
			t.Fatal("render after recovery differs from original")
		}
	})
}
