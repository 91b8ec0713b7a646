package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "A", "Blong", "C")
	tb.Add("1", "2", "3")
	tb.AddF("x", 1.5, 42)
	s := tb.String()
	if !strings.HasPrefix(s, "Title\n") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	// Columns align: header and rows share prefix widths.
	if !strings.Contains(lines[1], "A") || !strings.Contains(lines[1], "Blong") {
		t.Error("header wrong")
	}
	if !strings.Contains(lines[4], "1.5") || !strings.Contains(lines[4], "42") {
		t.Error("AddF formatting wrong")
	}
}

func TestTableShortAndLongRows(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.Add("only")        // short row padded
	tb.Add("1", "2", "3") // long row truncated
	s := tb.String()
	if strings.Contains(s, "3") {
		t.Error("extra cell not dropped")
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := NewTable("", "name", "value")
	tb.Add(`quo"te`, "a,b")
	csv := tb.CSV()
	if !strings.Contains(csv, `"quo""te"`) {
		t.Errorf("quote escaping wrong: %s", csv)
	}
	if !strings.Contains(csv, `"a,b"`) {
		t.Errorf("comma escaping wrong: %s", csv)
	}
	if !strings.HasPrefix(csv, "name,value\n") {
		t.Errorf("header wrong: %s", csv)
	}
}

func TestFmtF(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5:     "1.5",
		2:       "2",
		0.001:   "0.001",
		123456:  "1.23e+05",
		1.23456: "1.235",
	}
	for in, want := range cases {
		if got := FmtF(in); got != want {
			t.Errorf("FmtF(%g)=%q want %q", in, got, want)
		}
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3}, 4)
	if len([]rune(s)) != 4 {
		t.Fatalf("width wrong: %q", s)
	}
	runes := []rune(s)
	if runes[0] >= runes[3] {
		t.Errorf("ascending data must produce ascending blocks: %q", s)
	}
	if Sparkline(nil, 5) != "" || Sparkline([]float64{1}, 0) != "" {
		t.Error("degenerate inputs must return empty")
	}
	// Constant series renders the lowest level without dividing by zero.
	flat := Sparkline([]float64{2, 2, 2}, 3)
	if len([]rune(flat)) != 3 {
		t.Error("flat series broken")
	}
}
