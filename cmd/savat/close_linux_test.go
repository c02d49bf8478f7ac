package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/store"
)

// readOnlySegmentEnv names, in a re-executed command, the store segment
// whose descriptor is swapped for a read-only one once the command has
// opened it.
const readOnlySegmentEnv = "SAVAT_READONLY_SEGMENT"

func init() {
	if seg, ok := os.LookupEnv(readOnlySegmentEnv); ok {
		go readOnlySegment(seg)
	}
}

// readOnlySegment waits for this process to open path and then dup3s a
// read-only descriptor of the same file over that one: reads still
// work, every append fails.
func readOnlySegment(path string) {
	for {
		ents, _ := os.ReadDir("/proc/self/fd")
		for _, e := range ents {
			fd, err := strconv.Atoi(e.Name())
			if err != nil {
				continue
			}
			if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err != nil || target != path {
				continue
			}
			ro, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
			if err != nil {
				panic(err)
			}
			if err := syscall.Dup3(ro, fd, syscall.O_CLOEXEC); err != nil {
				panic(err)
			}
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestCacheWriteFailureExits1 runs a -cache-dir campaign whose store
// loses every write (a read-only descriptor swapped in under its
// segment, as service TestCloseReportsStoreWriteFailure does). The
// campaign itself completes, but its cells did not persist, so the
// command must report the failed close and exit 1.
func TestCacheWriteFailureExits1(t *testing.T) {
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	// A segment that already holds its header: opening it only reads,
	// so the swap may land any time after the command opens it.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"SAVAT_ARGS=-matrix -fast -repeats 1 -format csv -cache-dir "+dir,
		readOnlySegmentEnv+"="+filepath.Join(dir, "000001.seg"))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("savat exited with %v, want status 1; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "savat: closing cache:") {
		t.Fatalf("stderr does not report the failed close:\n%s", stderr.String())
	}
}
