package experiments

import (
	"strings"
	"testing"
)

func TestChaosExperimentsQuick(t *testing.T) {
	churn := quickSuite()["E12"]
	if len(churn.Rows) != 2 {
		t.Fatalf("E12 quick mode: %d rows, want 2", len(churn.Rows))
	}
	// The zero-churn baseline fires no faults; the churning arm fires some.
	if churn.Rows[0][1] != "0" {
		t.Errorf("baseline arm reports faults: %v", churn.Rows[0])
	}
	if churn.Rows[1][1] == "0" {
		t.Errorf("churn arm fired no faults: %v", churn.Rows[1])
	}
	// No invariant violations in either arm.
	for _, row := range churn.Rows {
		if row[len(row)-1] != "0" {
			t.Errorf("E12 arm reports violations: %v", row)
		}
	}

	ph := quickSuite()["E13"]
	if len(ph.Rows) < 3 {
		t.Fatalf("E13 produced too few rows: %v", ph.Rows)
	}
	last := ph.Rows[len(ph.Rows)-1]
	if last[0] != "overall" || !strings.Contains(last[4], "violations 0") {
		t.Errorf("E13 overall row = %v", last)
	}
	for _, tab := range []Table{churn, ph} {
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("%s row width mismatch: %v", tab.ID, row)
			}
		}
	}
}
