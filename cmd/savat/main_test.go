package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs main itself when the test binary is re-executed as the
// command, so the tests below can check its output.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SAVAT_ARGS"); ok {
		os.Args = append([]string{"savat"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSavat runs the command with args and returns its standard output.
func runSavat(t *testing.T, args string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SAVAT_ARGS="+args)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("savat %s: %v: %s", args, err, stderr.String())
	}
	return string(out)
}

// -kernel prints the Figure 4 listing with its calibrated
// inst_loop_count and sweep arrays — the kernel -pair measures, so a
// program countermeasure's rewrite shows in it. The goldens pin both,
// for an arithmetic, a branch, an L2 and a main-memory half, and for
// ADD/LDM under noop-insert, whose NOPs leave the calibrated loop count
// as it is; regenerate one with
//
//	go run ./cmd/savat -machine Core2Duo -pair ADD/LDM -kernel > cmd/savat/testdata/Core2Duo_ADD_LDM.kernel
func TestKernelListing(t *testing.T) {
	for _, c := range []struct{ pair, flags, golden string }{
		{"ADD/LDM", "", "Core2Duo_ADD_LDM.kernel"},
		{"STL2/BPM", "", "Core2Duo_STL2_BPM.kernel"},
		{"LDL2/DIV", "", "Core2Duo_LDL2_DIV.kernel"},
		{"NOI/STM", "", "Core2Duo_NOI_STM.kernel"},
		{"ADD/LDM", "-countermeasure noop-insert:0.5", "Core2Duo_ADD_LDM_noop-insert.kernel"},
	} {
		golden := filepath.Join("testdata", c.golden)
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := runSavat(t, "-machine Core2Duo "+c.flags+" -pair "+c.pair+" -kernel"); got != string(want) {
			t.Errorf("savat %s -pair %s -kernel differs from %s:\n%s", c.flags, c.pair, golden, got)
		}
	}
}
