package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"tapeworm/internal/experiment"
	"tapeworm/internal/mem"
)

// frames is the simulated physical memory in pages, twbench's and
// twsweep's default.
const frames = 8192

// benchWorkload is one batch job the benchmark times: one process, one
// caller waiting for each result (a closed loop).
type benchWorkload struct {
	name string
	// sweep names the workload swept over the grid; empty runs the
	// whole evaluation suite instead.
	sweep string
	scale float64
	// probe and check name the workload the layer probe and the
	// trap-equals-trace check run on.
	probe, check string
}

var workloads = []benchWorkload{
	// The CI-sized proxy for regenerating the evaluation: many short
	// compiled runs over the sched pool, so orchestration and the
	// all-activity Tables 6, 7 and 10 and Figure 4 do most of the work.
	{name: "eval-ci", scale: 1000, probe: "mpeg_play", check: "espresso"},
	// Paper scale, over the compile budget: the plan is refused and the
	// user stream interpreted, and 55% of the instructions are kernel or
	// server ones, so kernel/server synthesis dominates.
	{name: "sweep-mpeg", sweep: "mpeg_play", scale: 100, probe: "mpeg_play", check: "mpeg_play"},
	// No espresso sweep as a compiled, user-code control: its one short
	// bare run and one gang run share the two host CPUs, so its wall time
	// follows host load too closely to gate on (run-to-run spread up to
	// 0.31 of the median over ten seeds).
}

func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// sweepGrid is twsweep's default grid: 1K/4K/16K x 1/2/4-way x 16/32 B.
func sweepGrid(wl string) experiment.SweepConfig {
	return experiment.SweepConfig{
		Workload: wl,
		Sizes:    []int{1 << 10, 4 << 10, 16 << 10},
		Assocs:   []int{1, 2, 4},
		Lines:    []int{16, 32},
	}
}

// options returns the experiment options for w: twbench's defaults for
// the suite, twsweep's (result cache on) for a sweep.
func (w benchWorkload) options(seed uint64) experiment.Options {
	o := experiment.Options{Scale: w.scale, Seed: seed, Trials: 4, Frames: frames}
	if w.sweep != "" {
		o.Trials, o.ResultCache = 1, true
	}
	return o
}

// ops counts the operations of a run: one per experiment, sweep or
// correctness check.
type ops struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
}

func (o *ops) check(name string, err error) {
	o.Attempted++
	if err != nil {
		o.Failed++
		o.Errors = append(o.Errors, fmt.Sprintf("%s: %v", name, err))
	}
}

// opNames lists the operations of one execution of w, in order: one
// per experiment, or the one sweep.
func (w benchWorkload) opNames() []string {
	if w.sweep != "" {
		return []string{"sweep"}
	}
	return experiment.IDs()
}

// opPrefix starts the line a child prints on stdout just before each
// operation, so that the parent can tell which operation a child that
// died was in.
const opPrefix = "op "

// execute runs w once, leaving out the operations in skip, and returns
// the digest of its rendered tables. With rec non-nil, each call into
// experiment is a span under root; that is the only difference between a
// traced and an untraced execution.
func (w benchWorkload) execute(o experiment.Options, rec *recorder, root int, skip []string, res *ops) string {
	h := sha256.New()
	for _, op := range w.opNames() {
		if slices.Contains(skip, op) {
			continue
		}
		fmt.Println(opPrefix + op)
		var out string
		err := rec.timed("experiment."+op, root, func() error {
			return recovered(func() error {
				var t *experiment.Table
				var err error
				if w.sweep != "" {
					t, err = experiment.Sweep(o, sweepGrid(w.sweep))
				} else {
					var fn experiment.Func
					if fn, err = experiment.ByID(op); err == nil {
						t, err = fn(o)
					}
				}
				if err == nil {
					out = t.Render()
				}
				return err
			})
		})
		res.check(op, err)
		// Table 11 counts source lines, so every code change moves it:
		// it must complete but stays out of the digest.
		if op != "table11" {
			io.WriteString(h, out)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recovered calls fn, turning a panic on this goroutine into an error. A
// panic on one of the simulator's worker goroutines still ends the
// process; the parent handles that (see spawner.execute).
func recovered(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// childResult is what a child process reports on its last stdout line.
type childResult struct {
	WallS  float64            `json:"wall_s"`
	CPUS   float64            `json:"cpu_s"`
	RSSMB  float64            `json:"peak_rss_mb"`
	Digest string             `json:"digest"`
	Ops    ops                `json:"ops"`
	Spans  []span             `json:"spans,omitempty"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// runWorkload executes w in this process and measures it. Traced, it
// records spans and reads the layer counts that need no extra work.
func runWorkload(w benchWorkload, seed uint64, traced bool, skip []string) childResult {
	o := w.options(seed)
	var rec *recorder
	var tally mem.PoolTally
	root := 0
	if traced {
		rec = newRecorder()
		root = rec.start(w.name, 0)
		o.PoolTally = &tally
	}
	var res childResult
	cpu0 := processCPU()
	wall0 := time.Now()
	res.Digest = w.execute(o, rec, root, skip, &res.Ops)
	res.WallS = time.Since(wall0).Seconds()
	res.CPUS = float64(processCPU()-cpu0) / 1e9
	res.RSSMB = peakRSSMB()
	if !traced {
		return res
	}
	rec.end(root)
	res.Spans = rec.spans

	var wall, cpu int64
	for _, s := range rec.spans {
		if s.Parent == root {
			wall += s.dur()
			cpu += s.CPU
		}
	}
	st := experiment.ResultCacheStats()
	gets, reuses := tally.Counts()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Counts = map[string]float64{
		"experiment.wall_s":        float64(wall) / 1e9,
		"experiment.cpu_s":         float64(cpu) / 1e9,
		"experiment.parallel_util": ratio(float64(cpu), float64(wall)*float64(runtime.GOMAXPROCS(0))),
		"resultcache.hits":         float64(st.Hits),
		"resultcache.misses":       float64(st.Misses),
		"resultcache.joins":        float64(st.Joins),
		"mem.pool_gets":            float64(gets),
		"mem.pool_reuses":          float64(reuses),
		"runtime.alloc_mb":         float64(ms.TotalAlloc) / (1 << 20),
		"runtime.gc_cycles":        float64(ms.NumGC),
	}
	return res
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
