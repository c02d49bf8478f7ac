//go:build linux

package service

import (
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
)

// A state dir that stops taking writes mid-run does not fail the
// campaign — the result cache holds store write failures back — but
// Close reports it, so savatd can exit non-zero instead of silently
// losing the cells it claimed to keep.
func TestCloseReportsStoreWriteFailure(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Swap a read-only descriptor of the active segment in under the
	// store's own: its reads still work, every append now fails.
	seg, err := filepath.EvalSymlinks(filepath.Join(dir, "cache", "000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	fd := segmentFD(t, seg, int(ro.Fd()))
	if err := syscall.Dup3(int(ro.Fd()), fd, syscall.O_CLOEXEC); err != nil {
		t.Fatal(err)
	}

	j, err := s.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := awaitDone(t, s, j.ID); got.State != StateDone {
		t.Fatalf("job %s: state %s, error %q; a failing store must not fail the campaign", j.ID, got.State, got.Error)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close returned nil after every store write failed")
	}
}

// segmentFD finds the descriptor this process holds open on path,
// other than skip.
func segmentFD(t *testing.T, path string, skip int) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, e := range ents {
		fd, err := strconv.Atoi(e.Name())
		if err != nil || fd == skip {
			continue
		}
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && target == path {
			return fd
		}
	}
	t.Fatalf("no open descriptor on %s", path)
	return -1
}
