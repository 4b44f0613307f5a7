package main

import (
	"errors"
	"strings"
	"testing"

	"tapeworm/internal/experiment"
)

// TestReportContinuesPastFailure: one experiment failing must not cost
// the report the experiments after it. The failure prints in place of
// its table and is counted.
func TestReportContinuesPastFailure(t *testing.T) {
	ids := []string{"table3", "broken", "table12"}
	fns := make([]experiment.Func, len(ids))
	for i, id := range ids {
		if id == "broken" {
			fns[i] = func(experiment.Options) (*experiment.Table, error) {
				return nil, errors.New("go.mod not found")
			}
			continue
		}
		fn, err := experiment.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		fns[i] = fn
	}
	var out strings.Builder
	if failed := report(&out, ids, fns, experiment.QuickOptions(), nil); failed != 1 {
		t.Fatalf("report counted %d failures, want 1", failed)
	}
	got := out.String()
	broken := strings.Index(got, "(broken failed: go.mod not found)")
	before := strings.Index(got, "TABLE3 — ")
	after := strings.Index(got, "TABLE12 — ")
	if broken < 0 || before < 0 || after < 0 {
		t.Fatalf("report is missing a table or the failure line:\n%s", got)
	}
	if !(before < broken && broken < after) {
		t.Fatalf("failure line is not in the failed experiment's place:\n%s", got)
	}
	if !strings.Contains(got, "(table12 completed in ") {
		t.Fatalf("experiment after the failure did not complete:\n%s", got)
	}
}
