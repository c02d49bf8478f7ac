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
// inst_loop_count and sweep arrays. The goldens pin both, for an
// arithmetic, a branch, an L2 and a main-memory half; regenerate one with
//
//	go run ./cmd/savat -machine Core2Duo -pair ADD/LDM -kernel > cmd/savat/testdata/Core2Duo_ADD_LDM.kernel
func TestKernelListing(t *testing.T) {
	for _, pair := range []string{"ADD/LDM", "STL2/BPM", "LDL2/DIV", "NOI/STM"} {
		golden := filepath.Join("testdata", "Core2Duo_"+strings.ReplaceAll(pair, "/", "_")+".kernel")
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := runSavat(t, "-machine Core2Duo -pair "+pair+" -kernel"); got != string(want) {
			t.Errorf("savat -pair %s -kernel differs from %s:\n%s", pair, golden, got)
		}
	}
}
