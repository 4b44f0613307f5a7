package experiment

import (
	"strings"
	"testing"
)

// TestGangDeterminism: gang-eligible experiments beyond TestModeLattice's
// must render byte-identical tables with grouping on and off, serial and
// parallel. figure3 gangs an entire sweep
// into one execution; table8 gangs per trial; table6 exercises the
// gang-of-one path (its jobs differ in component flags, so nothing
// groups).
func TestGangDeterminism(t *testing.T) {
	for _, id := range []string{"figure3", "table8", "table6"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			fn, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			render := func(parallelism int, noGang bool) string {
				o := parallelOptions(parallelism)
				o.NoGang = noGang
				tab, err := fn(o)
				if err != nil {
					t.Fatal(err)
				}
				return tab.Render()
			}
			ganged := render(1, false)
			for _, c := range []struct {
				label string
				got   string
			}{
				{"solo -parallel 1", render(1, true)},
				{"ganged -parallel 8", render(8, false)},
				{"solo -parallel 8", render(8, true)},
			} {
				if c.got != ganged {
					t.Errorf("%s: %s differs from ganged serial render:\n--- ganged ---\n%s\n--- %s ---\n%s",
						id, c.label, ganged, c.label, c.got)
				}
			}
		})
	}
}

// TestGangProgressOrder: a gang completes many configurations at once, but
// progress lines must still arrive one per configuration in submission
// order — identical to the solo-run sequence.
func TestGangProgressOrder(t *testing.T) {
	collect := func(noGang bool, parallelism int) []string {
		o := parallelOptions(parallelism)
		o.NoGang = noGang
		var got []string
		o.Progress = func(line string) { got = append(got, line) } // relies on scheduler serialization
		if _, err := Table8(o); err != nil {
			t.Fatal(err)
		}
		return got
	}
	solo := collect(true, 1)
	if len(solo) == 0 {
		t.Fatal("no progress lines emitted")
	}
	for _, line := range solo {
		if !strings.HasPrefix(line, "table8:") {
			t.Fatalf("unexpected progress line %q", line)
		}
	}
	for _, c := range []struct {
		label  string
		noGang bool
		par    int
	}{
		{"ganged serial", false, 1},
		{"ganged parallel", false, 8},
		{"solo parallel", true, 8},
	} {
		got := collect(c.noGang, c.par)
		if len(got) != len(solo) {
			t.Fatalf("%s: %d progress lines, want %d", c.label, len(got), len(solo))
		}
		for i := range solo {
			if got[i] != solo[i] {
				t.Errorf("%s: line %d = %q, want %q (submission order)", c.label, i, got[i], solo[i])
			}
		}
	}
}
