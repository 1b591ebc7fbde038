package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wallClockColumns names, per experiment, the table columns that hold
// wall-clock readings; the golden comparison blanks them.
var wallClockColumns = map[string][]string{
	"E10": {"build time/group", "build time/vm"},
	"E12": {"wall time"},
}

// goldenTables renders every table of res as `alvc exp` prints it, with
// the experiment's wall-clock cells replaced by "*".
func goldenTables(t *testing.T, res *Result) string {
	t.Helper()
	var b strings.Builder
	for _, tbl := range res.Tables {
		masked := NewTable(tbl.Title, tbl.Headers...)
		for _, row := range tbl.Rows() {
			for i, h := range tbl.Headers {
				for _, c := range wallClockColumns[res.ID] {
					if h == c {
						row[i] = "*"
					}
				}
			}
			masked.AddRow(row...)
		}
		if err := masked.Render(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestExperimentTablesEqualGolden holds every table of E1–E15 to the
// output in testdata/, wall-clock columns aside: a change to a builder,
// a cover or any other reproduced number shows here as a table diff.
func TestExperimentTablesEqualGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			res, err := Run(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenTables(t, res); got != string(want) {
				t.Errorf("%s tables differ from testdata/%s.golden\n--- got\n%s--- want\n%s", id, id, got, want)
			}
		})
	}
}
