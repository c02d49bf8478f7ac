//go:build !unix

package store

import "os"

// lockFile is a no-op where flock(2) does not exist: there, two stores
// opened on one directory go undetected.
func lockFile(*os.File) error { return nil }
