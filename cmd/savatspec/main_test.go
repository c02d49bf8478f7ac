package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main itself when the test binary is re-executed as the
// command, so the tests below can check its exit status.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SAVATSPEC_ARGS"); ok {
		os.Args = append([]string{"savatspec"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// savatspec runs the command with args and returns its exit status and
// standard error.
func savatspec(t *testing.T, args string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SAVATSPEC_ARGS="+args)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// A -span wider than the analyzed half-span (or not positive) fails at
// flag parsing with exit status 2, before any measurement.
func TestSpanWiderThanBandIsUsageError(t *testing.T) {
	for _, span := range []string{"2001", "4e3", "0", "-5", "NaN"} {
		code, stderr := savatspec(t, "-span "+span)
		if code != 2 || !strings.Contains(stderr, "-span") {
			t.Errorf("-span %s: exit %d, stderr %q; want exit 2 naming -span", span, code, stderr)
		}
	}
}

func TestSpanWithinBandPlots(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a 1 s capture")
	}
	if code, stderr := savatspec(t, "-span 2000 -pair ADD/ADD"); code != 0 {
		t.Errorf("-span 2000: exit %d: %s", code, stderr)
	}
}
