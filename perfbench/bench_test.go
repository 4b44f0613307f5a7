package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"tapeworm/internal/workload"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesValid(t *testing.T) {
	seen := map[string]bool{}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		names = append(names, m.name)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q uses characters outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the metric and workload
// lists the program prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Command, []string{"python3", "perfbench/run.py"}) ||
		!reflect.DeepEqual(bf.Paths, []string{"perfbench"}) || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("command %v, paths %v, run_seconds %d", bf.Command, bf.Paths, bf.RunSeconds)
	}
	var wnames []string
	for _, w := range bf.Workloads {
		wnames = append(wnames, w.Name)
		if _, err := workloadByName(w.Name); err != nil || w.Why == "" {
			t.Errorf("workload %q: %v (why %q)", w.Name, err, w.Why)
		}
	}
	if len(wnames) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(wnames), len(workloads))
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(section string, got []metric, want []metricDef, bounded bool) {
		var g, w [][2]string
		for _, m := range got {
			g = append(g, [2]string{m.Name, m.Unit})
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %s: bad unit %q", section, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better is %q", section, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound present is %v", section, m.Name, m.Bound != nil)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", section, m.Name, *m.Bound)
			}
		}
		for _, m := range want {
			w = append(w, [2]string{m.name, m.unit})
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s in BENCHMARK.json:\n%v\nprogram prints:\n%v", section, g, w)
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	var setup float64
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range bf.EndToEnd {
		if *m.Bound > setup {
			t.Errorf("setup_s must have the largest bound; %s has %v > %v", m.Name, *m.Bound, setup)
		}
	}
}

// TestEveryMetricInOutput runs a small traced execution and probe and
// checks that every named metric is printed, and that a missing one is
// reported rather than printed as a silent zero.
func TestEveryMetricInOutput(t *testing.T) {
	iters := []childResult{{WallS: 1, CPUS: 2, RSSMB: 3}, {WallS: 2, CPUS: 3, RSSMB: 4}}
	m, missing := withUnits(endToEnd, endToEndValues(iters, []float64{0.1, 0.2, 0.3}))
	if len(missing) > 0 {
		t.Fatalf("missing %v", missing)
	}
	assertKeys(t, m, endToEnd)
	if m["wall_s"].Value != 1.5 || m["setup_s"].Value != 0.2 {
		t.Errorf("medians wrong: %+v", m)
	}
	if _, missing := withUnits(endToEnd, endToEndValues(nil, []float64{0.1})); !reflect.DeepEqual(missing, []string{"wall_s", "cpu_s", "peak_rss_mb"}) {
		t.Errorf("with no execution, missing %v", missing)
	}

	w := benchWorkload{name: "small", sweep: "espresso", scale: 4000, probe: "espresso"}
	untraced := runWorkload(w, 3, false, nil)
	traced := runWorkload(w, 3, true, nil)
	if untraced.Digest != traced.Digest {
		t.Errorf("traced tables differ from untraced")
	}
	if traced.Ops.Failed != 0 {
		t.Fatalf("traced run failed: %v", traced.Ops.Errors)
	}
	spec, err := workload.ByName("espresso", 4000)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := probe(spec, 3, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	again, err := probe(spec, 3, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if err := countsRepeat([]map[string]float64{counts, again}); err != nil {
		t.Error(err)
	}
	values := medianCounts([]map[string]float64{traced.Counts, counts})
	values["trace.overhead_frac"] = 0.01
	pl, missing := withUnits(perLayer, values)
	if len(missing) > 0 {
		t.Fatalf("missing %v", missing)
	}
	assertKeys(t, pl, perLayer)
	if pl["core.misses"].Value == 0 || pl["kernel.instr_user"].Value == 0 || pl["cache2000.refs"].Value == 0 {
		t.Errorf("probe counted nothing: %+v", pl)
	}

	delete(values, "core.misses")
	if _, missing := withUnits(perLayer, values); !reflect.DeepEqual(missing, []string{"core.misses"}) {
		t.Errorf("missing %v, want core.misses", missing)
	}
	if r := finish(ops{}, perLayer, values); r.Correct || r.Failed != 1 || len(r.Metrics) != len(perLayer)-1 {
		t.Errorf("a missing metric is not a failed operation: %+v", r)
	}
}

func TestCountsRepeat(t *testing.T) {
	a := map[string]float64{"core.misses": 10, "experiment.wall_s": 1}
	b := map[string]float64{"core.misses": 10, "experiment.wall_s": 2}
	if err := countsRepeat([]map[string]float64{a, b}); err != nil {
		t.Errorf("times may differ: %v", err)
	}
	b["core.misses"] = 11
	if err := countsRepeat([]map[string]float64{a, b}); err == nil {
		t.Error("a count that differs was not reported")
	}
	for _, d := range perLayer {
		if d.unit == unitCount && strings.HasPrefix(d.name, "runtime.") {
			t.Errorf("%s depends on the garbage collector; it cannot be an exact count", d.name)
		}
	}
}

func assertKeys(t *testing.T, m map[string]metricValue, defs []metricDef) {
	t.Helper()
	if len(m) != len(defs) {
		t.Errorf("%d metrics printed, %d named", len(m), len(defs))
	}
	for _, d := range defs {
		if v, ok := m[d.name]; !ok || v.Unit != d.unit {
			t.Errorf("metric %s missing or with unit %q", d.name, v.Unit)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 3, Name: "b1", Start: 25, End: 35},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestRecorder(t *testing.T) {
	r := newRecorder()
	root := r.start("root", 0)
	if err := r.timed("child", root, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	r.end(root)
	c, ok := r.find("child", root)
	if !ok || c.Parent != root || c.End < c.Start || r.spans[0].End < c.End {
		t.Errorf("spans not nested: %+v", r.spans)
	}
	var nilRec *recorder
	called := false
	_ = nilRec.timed("x", 0, func() error { called = true; return nil })
	if !called {
		t.Error("nil recorder did not call fn")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(v, n=4).
	cases := []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name           string
		parent, change []float64
		higherBetter   bool
		want           string
	}{
		{"same code", base, scaled(1.001), false, verdictWithin},
		{"faster", base, scaled(0.8), false, verdictImproved},
		{"slower", base, scaled(1.3), false, verdictWorse},
		{"slightly slower", base, scaled(1.05), false, verdictWithin},
		{"higher is better", base, scaled(1.3), true, verdictImproved},
		{"too few pairs to claim", base[:5], scaled(0.8)[:5], false, verdictWithin},
		{"noisy", []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}, []float64{9, 11, 13, 7, 10, 12, 8, 14, 6, 10}, false, verdictUnresolved},
		{"noisy but every run better", []float64{50, 70, 60, 80}, []float64{10, 20, 30, 40}, false, verdictWithin},
	}
	for _, c := range cases {
		if got := judge(c.parent, c.change, c.higherBetter, 0.1); got.verdict != c.want {
			t.Errorf("%s: verdict %q (%+v), want %q", c.name, got.verdict, got, c.want)
		}
	}
	if j := judge(base, scaled(0.8), false, 0.1); j.wins != 10 || j.pairs != 10 {
		t.Errorf("wins %d/%d, want 10/10", j.wins, j.pairs)
	}
}

func TestTrapEqualsTrace(t *testing.T) {
	spec, err := workload.ByName("espresso", 4000)
	if err != nil {
		t.Fatal(err)
	}
	if err := trapEqualsTrace(spec, 11); err != nil {
		t.Fatal(err)
	}
}

// TestCompareMain reads synthetic parent and change run files the way
// compare does and checks the rows and the exit code.
func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall float64, failed int) string {
		path := dir + "/" + name
		for i := 0; i < 10; i++ {
			m := map[string]metricValue{}
			for _, d := range endToEnd {
				m[d.name] = metricValue{Value: 1 + float64(i)/1000, Unit: d.unit}
			}
			m["wall_s"] = metricValue{Value: wall + float64(i)/1000, Unit: "s"}
			r := record{Workload: "sweep-mpeg", Seed: uint64(i), Result: result{
				Correct: failed == 0, Attempted: 20, Failed: failed, Metrics: m}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent := write("parent.jsonl", 4, 0)
	t.Chdir("..") // compare reads BENCHMARK.json from the checkout's root
	run := func(change string) (int, string) {
		var out strings.Builder
		code := compareMain([]string{parent, change}, &out)
		return code, out.String()
	}
	if code, out := run(write("same.jsonl", 4, 0)); code != 0 || strings.Count(out, verdictWithin) != len(endToEnd) {
		t.Errorf("same code: exit %d\n%s", code, out)
	}
	if code, out := run(write("faster.jsonl", 3, 0)); code != 0 || !strings.Contains(out, verdictImproved) {
		t.Errorf("faster change: exit %d\n%s", code, out)
	}
	if code, out := run(write("slower.jsonl", 6, 0)); code != 1 || !strings.Contains(out, verdictWorse) {
		t.Errorf("slower change: exit %d\n%s", code, out)
	}
	if code, out := run(write("failing.jsonl", 4, 1)); code != 1 || !strings.Contains(out, "10 of 200") {
		t.Errorf("failing change: exit %d\n%s", code, out)
	}
}

// fakeChildEnv makes the test binary act as a benchmark child whose
// workload has the operations a, b and c. Set to an operation's name, the
// child dies in that operation from a panic on another goroutine, as a
// crashing experiment takes down the process from a sched worker; set to
// "start", it dies before announcing any operation.
const fakeChildEnv = "PERFBENCH_FAKE_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(fakeChildEnv) != "" && len(os.Args) > 2 && os.Args[1] == "child" {
		os.Exit(fakeChild(os.Args[2], os.Args[3:]))
	}
	os.Exit(m.Run())
}

func fakeChild(mode string, args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	fs.String("workload", "", "")
	fs.Uint64("seed", 0, "")
	skip := fs.String("skip", "", "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fmt.Println("ready")
	if mode == "setup" {
		return 0
	}
	die := func() {
		go func() { panic("fake crash") }()
		select {}
	}
	if os.Getenv(fakeChildEnv) == "start" {
		die()
	}
	res := childResult{WallS: 1, CPUS: 1, RSSMB: 1}
	for _, op := range []string{"a", "b", "c"} {
		if slices.Contains(strings.Split(*skip, ","), op) {
			continue
		}
		fmt.Println(opPrefix + op)
		if os.Getenv(fakeChildEnv) == op {
			die()
		}
		res.Ops.check(op, nil)
		res.Digest += op
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return 1
	}
	return 0
}

// TestChildCrash checks that a child that dies still leaves a result
// line: the operation it died in is one failed operation, the others run
// in a repeated execution, and its metrics are reported.
func TestChildCrash(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	w := benchWorkload{name: "fake", check: "espresso", scale: 4000}

	t.Setenv(fakeChildEnv, "b")
	sp := &spawner{self: self, w: w, seed: 11}
	res := timedRun(sp, baseline{}, 1e-3)
	// trap=trace, the crash in b, then a and c of the repeated execution.
	if res.Correct || res.Attempted != 4 || res.Failed != 1 || !reflect.DeepEqual(sp.skip, []string{"b"}) {
		t.Errorf("crash in b: %+v, skip %v", res, sp.skip)
	}
	assertKeys(t, res.Metrics, endToEnd)

	t.Setenv(fakeChildEnv, "start")
	sp = &spawner{self: self, w: w, seed: 11}
	res = timedRun(sp, baseline{}, 1e-3)
	// trap=trace, the run, and the metrics it could not measure.
	if res.Correct || res.Attempted != 3 || res.Failed != 2 {
		t.Errorf("crash outside any operation: %+v", res)
	}
	if _, ok := res.Metrics["setup_s"]; !ok || len(res.Metrics) != 1 {
		t.Errorf("metrics %v, want setup_s only", res.Metrics)
	}
}
