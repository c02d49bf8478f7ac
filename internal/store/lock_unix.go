//go:build unix

package store

import (
	"errors"
	"os"
	"syscall"
)

// lockFile takes an exclusive advisory lock on f without waiting. The
// kernel drops the lock when f is closed or its process dies, SIGKILL
// included, so a crashed store never leaves its directory locked.
func lockFile(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return ErrLocked
	}
	return err
}
