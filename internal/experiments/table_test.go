package experiments

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("E4: AL quality", "algo", "mean size", "vs exact")
	tbl.AddRow("paper", "3.2", "1.07x")
	tbl.AddRow("random", "5.9") // short row padded
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, "E4: AL quality") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "mean size") {
		t.Fatal("header missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d, want 5:\n%s", len(lines), out)
	}
	if tbl.RowCount() != 2 {
		t.Fatalf("RowCount = %d", tbl.RowCount())
	}
}

func TestTableRowsCopies(t *testing.T) {
	tbl := NewTable("", "a")
	tbl.AddRow("x")
	rows := tbl.Rows()
	rows[0][0] = "mutated"
	if tbl.Rows()[0][0] != "x" {
		t.Fatal("Rows leaked internal storage")
	}
}

func TestFmt(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		3.14159: "3.142",
		123.456: "123.5",
		1000:    "1000",
	}
	for in, want := range cases {
		if got := Fmt(in); got != want {
			t.Errorf("Fmt(%v) = %q, want %q", in, got, want)
		}
	}
}

// Rows returns a copy of the accumulated rows.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// RowCount returns the number of rows.
func (t *Table) RowCount() int { return len(t.rows) }
