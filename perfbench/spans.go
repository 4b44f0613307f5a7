package main

import (
	"sort"
	"syscall"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (never inside the program). Times are nanoseconds from the
// recorder's origin; CPU is the process's user+sys time over the span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	origin time.Time
	spans  []span
	cpu0   []int64 // process CPU at each open span's start, by ID-1
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// start opens a span under parent (0 for a root) and returns its ID.
func (r *recorder) start(name string, parent int) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(r.origin).Nanoseconds(),
	})
	r.cpu0 = append(r.cpu0, processCPU())
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	s := &r.spans[id-1]
	s.End = time.Since(r.origin).Nanoseconds()
	s.CPU = processCPU() - r.cpu0[id-1]
}

// timed records fn as a span under parent.
// A nil recorder just calls fn.
func (r *recorder) timed(name string, parent int, fn func() error) error {
	if r == nil {
		return fn()
	}
	id := r.start(name, parent)
	defer r.end(id)
	return fn()
}

// find returns the first span named name under parent.
func (r *recorder) find(name string, parent int) (span, bool) {
	for _, s := range r.spans {
		if s.Name == name && s.Parent == parent {
			return s, true
		}
	}
	return span{}, false
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are counted
// once, and children are clipped to the parent's interval.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals inside p.
func covered(p span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// processCPU returns this process's user+sys CPU time in nanoseconds.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB returns this process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
