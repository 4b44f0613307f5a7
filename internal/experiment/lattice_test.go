package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tapeworm/internal/telemetry"
)

// latticeCell is one point of the execution-mode lattice: every toggle
// that must not change a rendered table, plus the worker-pool size.
type latticeCell struct {
	fastpath, compile, gang, resultCache, telemetry bool
	parallelism                                     int
}

func (c latticeCell) String() string {
	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	return fmt.Sprintf("fastpath=%s,compile=%s,gang=%s,resultcache=%s,telemetry=%s,parallel=%d",
		onOff(c.fastpath), onOff(c.compile), onOff(c.gang), onOff(c.resultCache),
		onOff(c.telemetry), c.parallelism)
}

// latticeCells enumerates all 64 cells.
func latticeCells() []latticeCell {
	var cells []latticeCell
	for bits := 0; bits < 32; bits++ {
		for _, par := range []int{1, 8} {
			cells = append(cells, latticeCell{
				fastpath:    bits&1 != 0,
				compile:     bits&2 != 0,
				gang:        bits&4 != 0,
				resultCache: bits&8 != 0,
				telemetry:   bits&16 != 0,
				parallelism: par,
			})
		}
	}
	return cells
}

// latticeExperiments are the lattice's paths through the harness:
// Figure 2 (non-gang measured-slowdown runs and the trace-driven
// baseline), Table 7 (gangs of one simulating kernel and servers too),
// Table 9 (per-trial gangs of several cache sizes, a page seed per trial)
// and a design-space sweep (one gang for the whole grid, the result
// cache's flagship client).
var latticeExperiments = []struct {
	id  string
	run func(Options) (*Table, error)
}{
	{"figure2", Figure2},
	{"table7", Table7},
	{"table9", Table9},
	{"sweep", func(o Options) (*Table, error) {
		return Sweep(o, SweepConfig{Workload: "espresso",
			Sizes: []int{1 << 10, 4 << 10}, Assocs: []int{1, 2}, Lines: []int{16, 32}})
	}},
}

// latticeRun is what one cell observed: the rendered tables and, with
// telemetry on, the metrics report without wall times and the trace.
type latticeRun struct {
	tables  string
	metrics string
	trace   string
}

// runLatticeCell renders every lattice experiment under c, at the
// smallest scale at which every experiment still arms and takes traps.
func runLatticeCell(t *testing.T, c latticeCell) latticeRun {
	t.Helper()
	o := Options{Scale: 40000, Seed: 4001, Trials: 2, Frames: 4096,
		Parallelism: c.parallelism, NoFastPath: !c.fastpath, NoCompile: !c.compile,
		NoGang: !c.gang, ResultCache: c.resultCache}
	var trace bytes.Buffer
	if c.telemetry {
		o.Telemetry = telemetry.New(telemetry.Config{Trace: &trace})
	}
	var out latticeRun
	var tables strings.Builder
	for _, e := range latticeExperiments {
		o.Telemetry.SetScope(e.id)
		tab, err := e.run(o)
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		tables.WriteString(tab.Render())
	}
	out.tables = tables.String()
	if !c.telemetry {
		return out
	}
	checkLatticeTelemetry(t, o.Telemetry, trace.Bytes())
	var m bytes.Buffer
	if err := o.Telemetry.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(m.String(), "\n") {
		if !strings.Contains(line, `"wall_seconds"`) {
			kept = append(kept, line)
		}
	}
	out.metrics = strings.Join(kept, "\n")
	out.trace = trace.String()
	return out
}

// checkLatticeTelemetry: every experiment records runs and trap events
// under its own scope, runs keep the solo naming (run<i> for the i-th
// configuration, ganged or not), and the trace is well-formed JSONL.
func checkLatticeTelemetry(t *testing.T, coll *telemetry.Collector, trace []byte) {
	t.Helper()
	rep := coll.Snapshot()
	if len(rep.Experiments) != len(latticeExperiments) {
		t.Fatalf("telemetry has %d scopes, want %d", len(rep.Experiments), len(latticeExperiments))
	}
	for i, sc := range rep.Experiments {
		if want := latticeExperiments[i].id; sc.ID != want {
			t.Fatalf("scope %d is %q, want %q", i, sc.ID, want)
		}
		if sc.Totals.Runs == 0 || sc.Totals.Events == 0 {
			t.Fatalf("%s: telemetry recorded %d runs, %d trap events", sc.ID, sc.Totals.Runs, sc.Totals.Events)
		}
		for j, r := range sc.Runs {
			if want := fmt.Sprintf("run%d", j); r.Name != want {
				t.Fatalf("%s: run %d named %q, want %q", sc.ID, j, r.Name, want)
			}
		}
	}
	if len(trace) == 0 {
		t.Fatal("empty trace stream")
	}
	sc := bufio.NewScanner(bytes.NewReader(trace))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		scope, _, _ := strings.Cut(ev.Run, "/")
		if ev.Kind == "" || !strings.HasPrefix(ev.Run, scope+"/run") {
			t.Fatalf("malformed event %+v", ev)
		}
	}
}

// TestModeLattice is the byte-identity gate for every execution-mode
// toggle: each of the 64 cells of {fastpath, compile, gang, result cache,
// telemetry with a trace writer} × parallelism {1, 8} must render exactly
// the tables of the serial all-off reference. A toggle whose path changes
// any table fails every cell that turns it on. With telemetry on and the
// gang setting held fixed, the metrics report (wall times stripped) must
// also be identical across every other toggle and both parallelisms;
// ganging legitimately moves machine-level counters onto a gang's first
// member, so the two gang settings are compared separately. The trace
// stream is compared with the fast path held fixed as well: in ledgered
// gang runs the batched fast path stamps some trap events a few cycles
// apart from the per-reference path, though every total agrees.
func TestModeLattice(t *testing.T) {
	want := runLatticeCell(t, latticeCell{parallelism: 1}).tables

	var mu sync.Mutex
	observed := make(map[latticeCell]latticeRun)
	t.Run("cells", func(t *testing.T) {
		for _, c := range latticeCells() {
			t.Run(c.String(), func(t *testing.T) {
				t.Parallel()
				got := runLatticeCell(t, c)
				if got.tables != want {
					t.Fatalf("tables differ from the serial all-off reference:\n--- reference ---\n%s\n--- %s ---\n%s",
						want, c, got.tables)
				}
				mu.Lock()
				observed[c] = got
				mu.Unlock()
			})
		}
	})

	// The first telemetry cell of each class is that class's reference.
	type traceClass struct{ gang, fastpath bool }
	metricsRef := make(map[bool]latticeCell)
	traceRef := make(map[traceClass]latticeCell)
	for _, c := range latticeCells() {
		got, ok := observed[c]
		if !c.telemetry || !ok {
			continue
		}
		if ref, ok := metricsRef[c.gang]; !ok {
			metricsRef[c.gang] = c
		} else if got.metrics != observed[ref].metrics {
			t.Errorf("metrics differ between %s and %s:\n--- %s ---\n%s\n--- %s ---\n%s",
				ref, c, ref, observed[ref].metrics, c, got.metrics)
		}
		k := traceClass{c.gang, c.fastpath}
		if ref, ok := traceRef[k]; !ok {
			traceRef[k] = c
		} else if got.trace != observed[ref].trace {
			t.Errorf("trace streams differ between %s and %s", ref, c)
		}
	}
}
