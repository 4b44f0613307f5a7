// Command perfbench is the Tapeworm II benchmark: host time to run the
// evaluation suite and a paper-scale design-space sweep, checked
// against reference digests of the rendered tables, with per-layer
// numbers from a separate traced run.
//
// Run it from the root of a checkout through the launcher, which builds
// this package and passes its arguments on:
//
//	python3 perfbench/run.py --workload eval-ci --seed 1994 --seconds 55 --trace 0
//	python3 perfbench/run.py --workload sweep-mpeg --trace 1
//	python3 perfbench/run.py compare parent.jsonl change.jsonl
//
// Workloads are eval-ci and sweep-mpeg (see workloads.go and
// BENCHMARK.json). Every execution runs in a fresh child process, so
// the process-wide caches start empty as they do for twbench and twsweep.
// An untraced run measures set-up time, runs the trap-equals-trace check
// and repeats the workload while the whole run fits in --seconds, and
// prints the median wall, CPU, set-up and peak-memory figures. A traced
// run (--trace 1) runs a layer probe twice, then untraced and traced
// executions (a span around each call into experiment) in alternating
// pairs, and prints the per-layer metrics. A child that dies fails the
// operation it was in and the rest still run. The last stdout line is
// one JSON object with keys correct, attempted, failed and metrics.
// --record appends the run to a JSON-lines file that the compare
// subcommand reads; seed-runs.jsonl holds the seed commit's runs in that
// form.
//
// Correctness: every execution's rendered tables must match the digest in
// baseline.json for its workload, seed and core.PhysicsVersion (when one
// is recorded), repeated and traced executions must render identical
// tables, and one trap-driven miss count must equal the trace-driven one.
// After a declared physics change, record new references with
//
//	python3 perfbench/run.py refs --workload eval-ci --seeds 1994,7477,1,2
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tapeworm/internal/core"
	"tapeworm/internal/workload"
)

// setupProbes is how many extra processes a timed run starts before
// each execution only to measure set-up time.
const setupProbes = 10

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "refs":
			os.Exit(refsMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// record is one run as the compare subcommand reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// processStart is when this process started, to within its package
// initialisation: --seconds bounds the whole run from here.
var processStart = time.Now()

func elapsed() float64 { return time.Since(processStart).Seconds() }

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wname := fs.String("workload", "eval-ci", "workload: eval-ci or sweep-mpeg")
	seed := fs.Uint64("seed", 1994, "workload seed, passed as the experiments' master seed")
	seconds := fs.Float64("seconds", 10, "measure for this many seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	recordPath := fs.String("record", "", "append this run as one JSON line to this file, for compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*wname)
	if err != nil || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *wname, *trace, *seconds)
		return 2
	}
	// Table 11 and the build both need the checkout's root.
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the root of a Tapeworm II checkout (no go.mod here)")
		return 2
	}
	b, err := loadBaseline()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	sp := &spawner{self: self, w: w, seed: *seed}

	var res result
	if *trace == 1 {
		res = tracedRun(sp, b, *seconds, filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", w.name, *seed)))
	} else {
		res = timedRun(sp, b, *seconds)
	}
	if *recordPath != "" {
		if err := appendRecord(*recordPath, record{w.name, *seed, *trace, res}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	printMetrics(os.Stdout, res.Metrics)
	// Not a result-line metric, which must never read 0.
	fmt.Printf("  %-28s %14.6g ratio (%d of %d operations)\n", "failed_frac",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// timedRun runs the trap-equals-trace check, then repeats the untraced
// workload, each time in a fresh process after some set-up probes, until
// another repetition would take the whole run past seconds. It reports
// the medians of whatever completed; failures are in the result's counts.
func timedRun(sp *spawner, b baseline, seconds float64) result {
	var (
		c       ops
		setups  []float64
		iters   []childResult
		digests []string
		longest float64
	)
	trapTraceCheck(&c, sp.w, sp.seed)
	for len(iters) == 0 || elapsed()+longest <= seconds {
		t0 := time.Now()
		// Set-up probes before each execution sample the host across
		// the whole run, as the executions do.
		for i := 0; i < setupProbes; i++ {
			_, setup, err := sp.spawn("setup")
			if err != nil {
				c.check("setup", err)
				break
			}
			setups = append(setups, setup)
		}
		r, setup, err := sp.execute("run", &c)
		longest = max(longest, time.Since(t0).Seconds())
		if err != nil {
			c.check("run", err)
			break
		}
		setups = append(setups, setup)
		iters = append(iters, r)
		digests = append(digests, r.Digest)
		c.merge(r.Ops)
	}
	checkDigests(&c, b, sp.w, sp.seed, digests, "repeated runs")
	fmt.Printf("%s seed %d: %d executions in %.1f s, wall_s", sp.w.name, sp.seed, len(iters), elapsed())
	for _, it := range iters {
		fmt.Printf(" %.3f", it.WallS)
	}
	fmt.Println()
	return finish(c, endToEnd, endToEndValues(iters, setups))
}

// tracePairs is the least number of untraced/traced execution pairs a
// traced run makes; it makes more while they fit in --seconds.
const tracePairs = 2

// tracedRun runs the layer probe twice, then untraced and traced
// executions in pairs, alternating which of the two goes first so that
// host drift does not load one side, each in its own fresh process. It
// reports the per-layer metrics: the traced executions' and probes'
// counts, which must repeat exactly, and the median tracing overhead.
func tracedRun(sp *spawner, b baseline, seconds float64, spansPath string) result {
	var (
		c                ops
		probes           []childResult
		untraced, traced []childResult
		overheads        []float64
		longest          float64
	)
	for i := 0; i < 2; i++ {
		p, _, err := sp.spawn("probe")
		c.check("probe", err)
		if err == nil {
			probes = append(probes, p)
		}
	}
pairs:
	for i := 0; i < tracePairs || elapsed()+longest <= seconds; i++ {
		t0 := time.Now()
		modes := []string{"run", "traced"}
		if i%2 == 1 {
			modes[0], modes[1] = modes[1], modes[0]
		}
		pair := map[string]childResult{}
		for _, mode := range modes {
			r, _, err := sp.execute(mode, &c)
			if err != nil {
				c.check(mode, err)
				break pairs
			}
			c.merge(r.Ops)
			pair[mode] = r
		}
		untraced, traced = append(untraced, pair["run"]), append(traced, pair["traced"])
		overheads = append(overheads, ratio(pair["traced"].WallS, pair["run"].WallS)-1)
		longest = max(longest, time.Since(t0).Seconds())
	}
	trapTraceCheck(&c, sp.w, sp.seed)
	var digests []string
	for i := range traced {
		digests = append(digests, untraced[i].Digest, traced[i].Digest)
	}
	checkDigests(&c, b, sp.w, sp.seed, digests, "traced vs untraced")

	var tracedCounts, probeCounts []map[string]float64
	for _, t := range traced {
		tracedCounts = append(tracedCounts, t.Counts)
	}
	for _, p := range probes {
		probeCounts = append(probeCounts, p.Counts)
	}
	if len(traced) > 1 {
		c.check("traced counts repeat", countsRepeat(tracedCounts))
	}
	if len(probes) > 1 {
		c.check("probe counts repeat", countsRepeat(probeCounts))
	}
	values := medianCounts(append(tracedCounts, probeCounts...))
	if len(overheads) > 0 {
		values["trace.overhead_frac"] = median(overheads)
	}
	fmt.Printf("%s seed %d: %d untraced/traced pairs, tracing overhead per pair", sp.w.name, sp.seed, len(overheads))
	for _, o := range overheads {
		fmt.Printf(" %+.3f", o)
	}
	fmt.Println(" (host drift between the two runs of a pair is of the same order)")

	spans := map[string]any{"workload": sp.w.name, "seed": sp.seed}
	for i, t := range traced {
		spans[fmt.Sprintf("traced.%d", i+1)] = t.Spans
		spans[fmt.Sprintf("untraced.%d.wall_s", i+1)] = untraced[i].WallS
	}
	for i, p := range probes {
		spans[fmt.Sprintf("probe.%d", i+1)] = p.Spans
	}
	if err := writeJSON(spansPath, spans); err != nil {
		c.check("write spans", err)
	} else {
		fmt.Printf("%s seed %d: spans written to %s\n", sp.w.name, sp.seed, spansPath)
	}
	if len(traced) > 0 {
		printSpans(os.Stdout, traced[0].Spans)
		// One wall and CPU figure per call into experiment (per
		// experiment on eval-ci), kept out of the result line because
		// they differ by workload.
		for _, s := range traced[0].Spans {
			if s.Parent == 1 {
				fmt.Printf("  %s.wall_s %.6g s\n  %s.cpu_s %.6g s\n", s.Name, float64(s.dur())/1e9, s.Name, float64(s.CPU)/1e9)
			}
		}
	}
	if len(probes) > 0 {
		printSpans(os.Stdout, probes[0].Spans)
	}
	return finish(c, perLayer, values)
}

// trapTraceCheck adds the trap-equals-trace comparison as one operation.
func trapTraceCheck(c *ops, w benchWorkload, seed uint64) {
	spec, err := workload.ByName(w.check, w.scale)
	if err == nil {
		err = recovered(func() error { return trapEqualsTrace(spec, seed) })
	}
	c.check("trap=trace", err)
}

// checkDigests checks each digest against the recorded reference (when
// one exists for this physics version) and the digests against each other.
func checkDigests(c *ops, b baseline, w benchWorkload, seed uint64, digests []string, same string) {
	if len(digests) == 0 {
		return
	}
	if ref, ok := b.reference(core.PhysicsVersion, w.name, seed); ok {
		for _, d := range digests {
			var err error
			if d != ref {
				err = fmt.Errorf("tables digest %s, reference %s", d, ref)
			}
			c.check("reference digest", err)
		}
	} else {
		fmt.Printf("%s seed %d: no reference digest recorded at physics version %d; checking determinism and trap=trace only\n",
			w.name, seed, core.PhysicsVersion)
	}
	if len(digests) > 1 {
		var err error
		for _, d := range digests[1:] {
			if d != digests[0] {
				err = fmt.Errorf("%s rendered different tables (%s vs %s)", same, d, digests[0])
			}
		}
		c.check("determinism", err)
	}
}

// finish builds the result line from the operations and the metric
// values. A named metric with no value is one more failed operation.
func finish(c ops, defs []metricDef, values map[string]float64) result {
	m, missing := withUnits(defs, values)
	if len(missing) > 0 {
		c.check("metrics", fmt.Errorf("no value for %v", missing))
	}
	for _, e := range c.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	return result{Correct: c.Failed == 0, Attempted: c.Attempted, Failed: c.Failed, Metrics: m}
}

func (o *ops) merge(x ops) {
	o.Attempted += x.Attempted
	o.Failed += x.Failed
	o.Errors = append(o.Errors, x.Errors...)
}

// spawner starts child processes of this binary for one workload and seed.
type spawner struct {
	self string
	w    benchWorkload
	seed uint64
	// skip lists the operations a child died in; later executions
	// leave them out.
	skip []string
}

// crashed is a child process that ended abnormally while in operation op
// ("" if it had announced none).
type crashed struct {
	op  string
	err error
}

// Error names the operation the child died in.
func (c crashed) Error() string {
	if c.op == "" {
		return fmt.Sprintf("child died: %v", c.err)
	}
	return fmt.Sprintf("child died in %s: %v", c.op, c.err)
}

// execute runs one execution of the workload in mode ("run" or
// "traced"). A panic on one of the simulator's worker goroutines ends the
// child process, so a child that dies fails the operation it was in, and
// the execution is repeated without that operation (and without it in
// every later execution): one crashing experiment does not hide the
// others. execute fails when a child dies outside any operation or every
// operation has crashed.
func (s *spawner) execute(mode string, c *ops) (childResult, float64, error) {
	for {
		r, setup, err := s.spawn(mode)
		var cr crashed
		if !errors.As(err, &cr) || cr.op == "" {
			return r, setup, err
		}
		c.check(cr.op, err)
		s.skip = append(s.skip, cr.op)
		if len(s.skip) >= len(s.w.opNames()) {
			return r, setup, fmt.Errorf("%s: every operation crashed", s.w.name)
		}
	}
}

// spawn runs one child in mode and returns its result and its set-up
// time: from starting the process to its "ready" line, which it prints
// just before its first call into experiment. A child that exits
// abnormally is a crashed error naming the operation it last announced.
func (s *spawner) spawn(mode string) (childResult, float64, error) {
	var r childResult
	cmd := exec.Command(s.self, "child", mode, "--workload", s.w.name,
		"--seed", strconv.FormatUint(s.seed, 10), "--skip", strings.Join(s.skip, ","))
	cmd.Stderr = os.Stderr
	// A child must not outlive the benchmark if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return r, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return r, 0, err
	}
	br := bufio.NewReader(out)
	first, _ := br.ReadString('\n') // a short read fails the ready check below
	setup := time.Since(t0).Seconds()
	rest, readErr := io.ReadAll(br)
	lines := strings.Split(strings.TrimSuffix(string(rest), "\n"), "\n")
	if err := cmd.Wait(); err != nil {
		var op string
		for _, l := range lines {
			if after, ok := strings.CutPrefix(l, opPrefix); ok {
				op = after
			}
		}
		return r, 0, crashed{op: op, err: err}
	}
	if readErr != nil {
		return r, 0, fmt.Errorf("%s child: %w", mode, readErr)
	}
	if first != "ready\n" {
		return r, 0, fmt.Errorf("%s child: expected a ready line, got %q", mode, first)
	}
	if mode == "setup" {
		return r, setup, nil
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, 0, fmt.Errorf("%s child: bad result: %w", mode, err)
	}
	return r, setup, nil
}

// childMain runs in a child process: set-up, the "ready" line, then the
// mode's work, announcing each operation on a line of its own, and the
// result as one JSON line.
func childMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench child: missing mode")
		return 2
	}
	mode := args[0]
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	wname := fs.String("workload", "", "workload")
	seed := fs.Uint64("seed", 1994, "workload seed")
	skip := fs.String("skip", "", "comma-separated operations to leave out")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	w, err := workloadByName(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	fmt.Println("ready")
	var res childResult
	switch mode {
	case "setup":
		return 0
	case "run", "traced":
		res = runWorkload(w, *seed, mode == "traced", strings.Split(*skip, ","))
	case "probe":
		spec, err := workload.ByName(w.probe, w.scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			return 1
		}
		fmt.Println(opPrefix + "probe")
		rec := newRecorder()
		res.Counts, err = probe(spec, *seed, rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child: probe:", err)
			return 1
		}
		res.Spans = rec.spans
	default:
		fmt.Fprintf(os.Stderr, "perfbench child: unknown mode %q\n", mode)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

// refsMain prints the digests of one workload's tables for each seed, in
// baseline.json's form, for recording references.
func refsMain(args []string) int {
	fs := flag.NewFlagSet("refs", flag.ContinueOnError)
	wname := fs.String("workload", "", "workload")
	seeds := fs.String("seeds", "1994", "comma-separated seeds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench refs:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench refs:", err)
		return 1
	}
	out := map[string]string{}
	for _, f := range strings.Split(*seeds, ",") {
		seed, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench refs:", err)
			return 2
		}
		r, _, err := (&spawner{self: self, w: w, seed: seed}).spawn("run")
		if err == nil && r.Ops.Failed > 0 {
			err = errors.New(strings.Join(r.Ops.Errors, "; "))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench refs: seed %d: %v\n", seed, err)
			return 1
		}
		out[strconv.FormatUint(seed, 10)] = r.Digest
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{strconv.Itoa(core.PhysicsVersion): map[string]any{w.name: out}}); err != nil {
		return 1
	}
	return 0
}

// printMetrics prints every metric by name with its unit.
func printMetrics(out io.Writer, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printSpans prints each span's wall, CPU and self time, indented by depth.
func printSpans(out io.Writer, spans []span) {
	self := selfTimes(spans)
	depth := map[int]int{}
	for _, s := range spans {
		if s.Parent != 0 {
			depth[s.ID] = depth[s.Parent] + 1
		}
		name := strings.Repeat("  ", depth[s.ID]) + s.Name
		fmt.Fprintf(out, "  %-32s wall %9.4f s  cpu %9.4f s  self %9.4f s\n",
			name, float64(s.dur())/1e9, float64(s.CPU)/1e9, float64(self[s.ID])/1e9)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
