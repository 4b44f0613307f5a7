package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain judges a change against its parent from two files of
// recorded untraced runs. For each workload and end-to-end metric it
// prints both sides' medians and quartiles, how many pairs the change won
// and a verdict. The i-th parent run of a workload is paired with the
// i-th change run, so record both sides over the same seeds in the same
// order, alternating which side runs first.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare parent.jsonl change.jsonl (from the checkout's root)")
		return 2
	}
	var bf benchmarkFile
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	parent, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	change, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	fmt.Fprintf(out, "%-15s %-12s %-4s %28s %28s %8s %6s  %s\n",
		"workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "verdict")
	worse := false
	for _, w := range bf.Workloads {
		p, c := parent[w.Name], change[w.Name]
		if len(p) == 0 || len(c) == 0 {
			fmt.Fprintf(out, "%-15s (%d parent runs, %d change runs)\n", w.Name, len(p), len(c))
			continue
		}
		// A change that fails more operations gains nothing.
		pf, pa := failures(p)
		cf, ca := failures(c)
		fmt.Fprintf(out, "%-15s %-12s %-4s %28s %28s\n", w.Name, "failed", "ops",
			fmt.Sprintf("%d of %d", pf, pa), fmt.Sprintf("%d of %d", cf, ca))
		worse = worse || cf*pa > pf*ca
		for _, m := range bf.EndToEnd {
			pv, cv := values(p, m.Name), values(c, m.Name)
			v := judge(pv, cv, m.Better == "higher", m.Bound)
			worse = worse || v.verdict == verdictWorse
			fmt.Fprintf(out, "%-15s %-12s %-4s %28s %28s %+7.1f%% %6s  %s\n",
				w.Name, m.Name, m.Unit, v.parent, v.change, 100*v.delta,
				fmt.Sprintf("%d/%d", v.wins, v.pairs), v.verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// readRecords reads the untraced runs of a --record file by workload, in
// file order.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r.Result)
		}
	}
	return out, sc.Err()
}

// failures sums failed and attempted operations over runs.
func failures(rs []result) (failed, attempted int) {
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

func values(rs []result, metric string) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = r.Metrics[metric].Value
	}
	return v
}

const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// summary is one side's median and quartiles.
type summary struct{ med, q1, q3 float64 }

// String formats the summary as "median [q1, q3]".
func (s summary) String() string { return fmt.Sprintf("%.4g [%.4g, %.4g]", s.med, s.q1, s.q3) }

func summarize(v []float64) summary {
	q := quartiles(v)
	return summary{med: q[1], q1: q[0], q3: q[2]}
}

// judgement is one compare row.
type judgement struct {
	parent, change summary
	delta          float64 // change median over parent median, minus 1
	wins, pairs    int
	verdict        string
}

// judge applies the benchmark's rule. The change improved when it won at
// least nine tenths of at least ten pairs (ties count for neither) and the
// medians differ, in its favour, by more than the parent's quartile
// spread. Otherwise, when either side's spread exceeds the bound, the
// metric is unresolved unless every change run beat every parent run; it
// is worse when the change's median is worse than the parent's by more
// than the bound, and within bound if not.
func judge(parent, change []float64, higherBetter bool, bound float64) judgement {
	j := judgement{parent: summarize(parent), change: summarize(change)}
	better := func(c, p float64) bool {
		if higherBetter {
			return c > p
		}
		return c < p
	}
	j.pairs = min(len(parent), len(change))
	for i := 0; i < j.pairs; i++ {
		if better(change[i], parent[i]) {
			j.wins++
		}
	}
	j.delta = ratio(j.change.med, j.parent.med) - 1
	worseBy := j.delta // share by which the change is worse
	if higherBetter {
		worseBy = -j.delta
	}
	spread := func(s summary) float64 { return ratio(s.q3-s.q1, s.med) }
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case j.pairs >= 10 && 10*j.wins >= 9*j.pairs &&
		better(j.change.med, j.parent.med) && math.Abs(j.change.med-j.parent.med) > j.parent.q3-j.parent.q1:
		j.verdict = verdictImproved
	case max(spread(j.parent), spread(j.change)) > bound && !allBetter:
		j.verdict = verdictUnresolved
	case worseBy > bound:
		j.verdict = verdictWorse
	default:
		j.verdict = verdictWithin
	}
	return j
}

// quartiles returns the first quartile, median and third quartile of v by
// the method of Python's statistics.quantiles(v, n=4) ("exclusive"). With
// fewer than two values all three are the value itself (or 0).
func quartiles(v []float64) [3]float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		x := 0.0
		if ld == 1 {
			x = d[0]
		}
		return [3]float64{x, x, x}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}
