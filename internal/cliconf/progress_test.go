package cliconf

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// Off a terminal, progress is whole lines — the first update, then at
// most one per interval, then the final one — never \r overwrites; on a
// terminal every update overwrites the status line.
func TestProgressPlainLinesOffTerminal(t *testing.T) {
	var buf bytes.Buffer
	p := newProgress(&buf, false, time.Hour)
	for i := 1; i <= 100; i++ {
		p.Printf(i == 100, "measuring %d/%d cells", i, 100)
	}
	p.End()
	got := buf.String()
	if strings.Contains(got, "\r") {
		t.Errorf("non-terminal progress contains \\r: %q", got)
	}
	if want := "measuring 1/100 cells\nmeasuring 100/100 cells\n"; got != want {
		t.Errorf("non-terminal progress = %q, want %q", got, want)
	}

	buf.Reset()
	p = newProgress(&buf, true, time.Hour)
	for i := 1; i <= 3; i++ {
		p.Printf(i == 3, "measuring %d/%d cells", i, 3)
	}
	p.End()
	if want := "\rmeasuring 1/3 cells\rmeasuring 2/3 cells\rmeasuring 3/3 cells\n"; buf.String() != want {
		t.Errorf("terminal progress = %q, want %q", buf.String(), want)
	}
}
