package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// unitCount marks a per-layer count that must repeat exactly from one
// execution to the next (see countsRepeat).
const unitCount = "count"

// unitVaries marks a per-layer count that depends on goroutine
// scheduling or the garbage collector, so it may differ between two
// executions of the same work; no claim may rest on it alone.
const unitVaries = "count.varies"

// metricDef names one metric; BENCHMARK.json lists the same names.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, from untraced
// runs. Failures are not a metric here: they are the result line's
// attempted/failed counts, and a metric must never read 0.
var endToEnd = []metricDef{
	{"wall_s", "s"},       // host wall time of one workload execution
	{"cpu_s", "s"},        // host user+sys CPU time of it
	{"setup_s", "s"},      // process start to the first call into experiment
	{"peak_rss_mb", "MB"}, // peak resident memory of the process
}

// perLayer are the traced run's numbers, named by module.
var perLayer = []metricDef{
	{"experiment.wall_s", "s"},
	{"experiment.cpu_s", "s"},
	{"experiment.parallel_util", "ratio"},
	{"workload.plan_s", "s"},
	{"workload.plan_refused", "count"},
	{"workload.plan_ops", "count"},
	{"workload.drain_refs_per_s", "1/s"},
	{"kernel.boot_s", "s"},
	{"kernel.run_bare_s", "s"},
	{"kernel.instr_user", "count"},
	{"kernel.instr_kernel", "count"},
	{"kernel.instr_server", "count"},
	{"kernel.ns_per_instr_bare", "ns"},
	{"mach.fastpath_words", "count"},
	{"mach.xl_hits", "count"},
	{"mach.fastpath_share", "ratio"},
	{"mach.ecc_traps", "count"},
	{"mach.host_tlb_misses", "count"},
	{"mach.page_faults", "count"},
	{"core.run_solo_s", "s"},
	{"core.run_gang_s", "s"},
	{"core.trap_s", "s"},
	{"core.member_marginal_s", "s"},
	{"core.misses", "count"},
	{"core.handler_cycles", "count"},
	{"core.ns_per_miss", "ns"},
	{"cache2000.trace_s", "s"},
	{"cache2000.refs", "count"},
	{"resultcache.hits", "count"},
	{"resultcache.misses", "count"},
	{"resultcache.joins", unitVaries},
	{"mem.pool_gets", "count"},
	{"mem.pool_reuses", unitVaries},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", unitVaries},
	{"trace.overhead_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEndValues takes the median of each metric over a run's
// executions; set-up times come from every process the run started.
func endToEndValues(iters []childResult, setups []float64) map[string]float64 {
	values := map[string]float64{}
	if len(setups) > 0 {
		values["setup_s"] = median(setups)
	}
	if len(iters) == 0 {
		return values
	}
	pick := func(f func(childResult) float64) float64 {
		v := make([]float64, len(iters))
		for i, it := range iters {
			v[i] = f(it)
		}
		return median(v)
	}
	values["wall_s"] = pick(func(r childResult) float64 { return r.WallS })
	values["cpu_s"] = pick(func(r childResult) float64 { return r.CPUS })
	values["peak_rss_mb"] = pick(func(r childResult) float64 { return r.RSSMB })
	return values
}

// medianCounts merges the layer counts of several executions, taking each
// metric's median.
func medianCounts(runs []map[string]float64) map[string]float64 {
	all := map[string][]float64{}
	for _, r := range runs {
		for k, v := range r {
			all[k] = append(all[k], v)
		}
	}
	out := make(map[string]float64, len(all))
	for k, v := range all {
		out[k] = median(v)
	}
	return out
}

// countsRepeat checks that every per-layer metric with unit count has the
// same value in each of runs. Those counts follow only from the program's
// work, so a later change may rest a claim on them; counts that depend on
// scheduling or the garbage collector have unit count.varies instead.
func countsRepeat(runs []map[string]float64) error {
	for _, d := range perLayer {
		if d.unit != unitCount {
			continue
		}
		for _, r := range runs[min(1, len(runs)):] {
			v, ok := r[d.name]
			if w, wok := runs[0][d.name]; ok && wok && v != w {
				return fmt.Errorf("%s is %v in one execution and %v in another", d.name, w, v)
			}
		}
	}
	return nil
}

// withUnits attaches units to values, one entry per definition, and
// returns the names of the definitions that have no value: every named
// metric must be printed.
func withUnits(defs []metricDef, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			out[d.name] = metricValue{Value: v, Unit: d.unit}
		} else {
			missing = append(missing, d.name)
		}
	}
	return out, missing
}

// median of v (0 when empty).
func median(v []float64) float64 { return quartiles(v)[1] }

//go:embed baseline.json
var baselineJSON []byte

// baseline is the part of baseline.json the benchmark reads: reference
// digests of the rendered tables by physics version, workload and seed.
// The file also records the seed commit's runs, its host and a seed held
// back from tuning.
type baseline struct {
	References map[string]map[string]map[string]string `json:"references"`
}

func loadBaseline() (baseline, error) {
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return b, fmt.Errorf("baseline.json: %w", err)
	}
	return b, nil
}

// reference returns the recorded digest for (physics version, workload,
// seed), if there is one.
func (b baseline) reference(physics int, workload string, seed uint64) (string, bool) {
	d, ok := b.References[strconv.Itoa(physics)][workload][strconv.FormatUint(seed, 10)]
	return d, ok
}
