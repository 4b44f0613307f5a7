package experiment

// Interval checkpoints. Representative-interval replay (interval.go)
// captures one mid-run kernel checkpoint per representative in its
// profiling pass and forks it for every gang replay of that
// representative. The checkpoints live here: process-wide, LRU-bounded,
// keyed by workload identity and interval index. Checkpoints are pure
// values (deep copies, never mutated by forks), so eviction only costs a
// re-profile and can never change results.

import (
	"sync"
	"sync/atomic"

	"tapeworm/internal/kernel"
	"tapeworm/internal/workload"
)

// maxCachedIntervalCheckpoints bounds the cache: one interval-replay
// sweep parks one mid-run image per representative.
const maxCachedIntervalCheckpoints = 16

// ckKey identifies one cached checkpoint: the workload identity and the
// interval index it freezes the stream at.
type ckKey struct {
	seed     uint64
	pageSeed uint64
	frames   int
	spec     workload.Spec
	interval int
}

// ckGeom is the phase geometry a checkpoint was captured under. It is
// deliberately NOT part of ckKey: a sweep that changes its phase
// parameters mid-process re-uses the same (identity, interval) keys, so
// entries captured under the old geometry are stale — they freeze the
// stream at different positions — and are evicted (counted in
// ckEvictions) rather than silently replayed.
type ckGeom struct {
	intervals int
	k         int
	warmup    int
}

type ckEntry struct {
	cp   *kernel.Checkpoint
	gen  uint64 // LRU clock, updated under ckMu
	geom ckGeom
}

var (
	ckMu    sync.Mutex
	ckCache = map[ckKey]*ckEntry{}
	ckGen   uint64

	ckEvictions atomic.Uint64 // entries evicted as geometry-stale
)

// evictCheckpointLRU drops the least-recently-used entry (never keep
// itself) under ckMu. Generation numbers are unique, so the minimum is
// the same victim at any iteration order.
func evictCheckpointLRU(keep *ckEntry) {
	var victimKey ckKey
	var victim *ckEntry
	//twvet:allow maporder — unique-minimum selection is order-insensitive
	for k, v := range ckCache {
		if v == keep {
			continue
		}
		if victim == nil || v.gen < victim.gen {
			victimKey, victim = k, v
		}
	}
	if victim != nil {
		delete(ckCache, victimKey)
	}
}

// lookupIntervalCheckpoint serves a mid-run checkpoint for (key, geom)
// from the process-wide cache. A cached entry whose geometry disagrees
// is stale (see ckGeom) and is evicted on sight.
func lookupIntervalCheckpoint(key ckKey, geom ckGeom) (*kernel.Checkpoint, bool) {
	ckMu.Lock()
	defer ckMu.Unlock()
	e := ckCache[key]
	if e == nil {
		return nil, false
	}
	if e.geom != geom {
		delete(ckCache, key)
		ckEvictions.Add(1)
		return nil, false
	}
	ckGen++
	e.gen = ckGen
	return e.cp, true
}

// storeIntervalCheckpoint publishes a freshly captured mid-run checkpoint
// and sweeps the cache: entries under any other geometry are unreachable
// by this sweep's keys and are evicted now rather than aging out one
// lookup at a time.
func storeIntervalCheckpoint(key ckKey, geom ckGeom, cp *kernel.Checkpoint) {
	ckMu.Lock()
	defer ckMu.Unlock()
	//twvet:allow maporder — deleting every mismatch is order-insensitive
	for k, v := range ckCache {
		if v.geom != geom {
			delete(ckCache, k)
			ckEvictions.Add(1)
		}
	}
	e := &ckEntry{cp: cp, geom: geom}
	ckCache[key] = e
	ckGen++
	e.gen = ckGen
	for len(ckCache) > maxCachedIntervalCheckpoints {
		evictCheckpointLRU(e)
	}
}
