package experiment

import (
	"strings"
	"testing"
)

// TestOrderedProgressUnderParallelism is the satellite regression test:
// progress lines must arrive in submission order at any parallelism, so
// the parallel sequence equals the serial sequence exactly — not merely
// as a set.
func TestOrderedProgressUnderParallelism(t *testing.T) {
	collect := func(parallelism int) []string {
		o := parallelOptions(parallelism)
		var got []string
		o.Progress = func(line string) { got = append(got, line) }
		if _, err := Figure2(o); err != nil {
			t.Fatal(err)
		}
		return got
	}
	serial := collect(1)
	if len(serial) == 0 {
		t.Fatal("no progress lines emitted")
	}
	parallel := collect(8)
	if len(serial) != len(parallel) {
		t.Fatalf("progress line counts differ: %d serial, %d parallel", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("progress order diverges at line %d: serial %q, parallel %q\nserial: %v\nparallel: %v",
				i, serial[i], parallel[i], serial, parallel)
		}
	}
}

// TestOptionsValidate covers the error paths that used to reach panics
// (empty trial slices in stats.Summarize, bad frame counts in
// mem.NewPhys).
func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("DefaultOptions invalid: %v", err)
	}
	if err := QuickOptions().Validate(); err != nil {
		t.Errorf("QuickOptions invalid: %v", err)
	}
	base := QuickOptions()
	for _, tc := range []struct {
		name   string
		mutate func(*Options)
		want   string
	}{
		{"zero trials", func(o *Options) { o.Trials = 0 }, "Trials"},
		{"negative trials", func(o *Options) { o.Trials = -3 }, "Trials"},
		{"zero scale", func(o *Options) { o.Scale = 0 }, "Scale"},
		{"negative scale", func(o *Options) { o.Scale = -1 }, "Scale"},
		{"zero frames", func(o *Options) { o.Frames = 0 }, "Frames"},
		{"negative frames", func(o *Options) { o.Frames = -8 }, "Frames"},
		{"oversized frames", func(o *Options) { o.Frames = 1 << 22 }, "Frames"},
		{"negative parallelism", func(o *Options) { o.Parallelism = -2 }, "Parallelism"},
	} {
		o := base
		tc.mutate(&o)
		err := o.Validate()
		if err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestExperimentsRejectBadOptions: every registered experiment must
// return the validation error instead of scheduling runs (or panicking).
func TestExperimentsRejectBadOptions(t *testing.T) {
	bad := QuickOptions()
	bad.Trials = 0
	for _, id := range IDs() {
		fn, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fn(bad); err == nil {
			t.Errorf("%s: accepted Trials=0, want error", id)
		}
	}
	badFrames := QuickOptions()
	badFrames.Frames = -1
	if _, err := Table7(badFrames); err == nil {
		t.Error("table7 accepted Frames=-1, want error")
	}
}
