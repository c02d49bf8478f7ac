package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadValidCSV(t *testing.T) {
	m, err := load(writeTemp(t, "A/B,LDM,NOI\nLDM,1.5,2.0\nNOI,2.0,0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 2 {
		t.Fatalf("size = %d", m.Size())
	}
	// CSV values are zeptojoules; the matrix stores joules.
	if got := m.Vals[0][1]; got != 2.0e-21 {
		t.Errorf("cell LDM/NOI = %g, want 2e-21", got)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := load(filepath.Join(t.TempDir(), "absent.csv")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadMalformedCSV(t *testing.T) {
	cases := []struct {
		name, csv, wantErr string
	}{
		{"empty", "", "header and rows"},
		{"header-only", "A/B,LDM,NOI", "header and rows"},
		{"bare-header", "justonefield\nrow", "malformed CSV header"},
		{"unknown-header-event", "A/B,LDM,WAT\nLDM,1,2\nWAT,2,1", "unknown event"},
		{"row-count", "A/B,LDM,NOI\nLDM,1,2", "1 rows for 2 events"},
		{"field-count", "A/B,LDM,NOI\nLDM,1\nNOI,2,1", "has 2 fields, want 3"},
		{"unknown-row-event", "A/B,LDM,NOI\nLDM,1,2\nWAT,2,1", "unknown event"},
		{"row-order", "A/B,LDM,NOI\nNOI,1,2\nLDM,2,1", "rows must match header order"},
		{"bad-float", "A/B,LDM,NOI\nLDM,1,x\nNOI,2,1", "invalid syntax"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := load(writeTemp(t, c.csv))
			if err == nil {
				t.Fatalf("malformed CSV accepted:\n%s", c.csv)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, c.wantErr)
			}
		})
	}
}

// A negative -top is refused before anything is compared; a -top past
// the comparable cells lists them all.
func TestTopFlag(t *testing.T) {
	path := writeTemp(t, "A/B,LDM,NOI\nLDM,1.5,2.0\nNOI,2.0,0.5\n")
	var out strings.Builder
	err := run([]string{"-top", "-1", path, path}, &out)
	if err == nil || !strings.Contains(err.Error(), "-top") {
		t.Fatalf("-top -1: err = %v, want a -top error", err)
	}
	if out.Len() != 0 {
		t.Errorf("-top -1 printed %q before failing", out.String())
	}

	out.Reset()
	if err := run([]string{"-top", "99", path, path}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "x)\n"); got != 4 {
		t.Errorf("-top 99 over 4 cells listed %d deviations:\n%s", got, out.String())
	}
}
