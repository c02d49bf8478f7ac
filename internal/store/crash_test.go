package store

// Crash-injection harness for the segment log.
//
// Each case writes N records, fsyncs the first `durable` of them with
// Sync, leaves the rest appended but unsynced, and then kills the store
// with Crash() (no fsync, handles closed as-is — the process-kill
// boundary). The harness then corrupts the log tail at a configurable
// offset — truncation to simulate a torn write, or a bit flip to
// simulate media corruption — and reopens. The recovery invariant under
// test:
//
//   - every record that was fully written *before* the corruption point
//     is recovered with its exact bytes;
//   - the torn/corrupt tail is truncated cleanly, never served;
//   - the store is immediately writable again and a further
//     crash-free reopen is stable.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// tailFile returns the path and size of the highest-numbered segment.
func tailFile(t *testing.T, dir string) (string, int64) {
	t.Helper()
	ids, err := segmentIDs(dir)
	if err != nil || len(ids) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%06d.seg", ids[len(ids)-1]))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, fi.Size()
}

// truncateTail removes the last n bytes of the active segment.
func truncateTail(t *testing.T, dir string, n int64) {
	t.Helper()
	path, size := tailFile(t, dir)
	if n > size {
		n = size
	}
	if err := os.Truncate(path, size-n); err != nil {
		t.Fatal(err)
	}
}

// flipBit XORs one bit at `back` bytes from the end of the active
// segment.
func flipBit(t *testing.T, dir string, back int64, bit uint) {
	t.Helper()
	path, size := tailFile(t, dir)
	if back >= size {
		t.Fatalf("flip offset %d beyond segment size %d", back, size)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], size-1-back); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 1 << bit
	if _, err := f.WriteAt(b[:], size-1-back); err != nil {
		t.Fatal(err)
	}
}

func crashKey(i int) string { return fmt.Sprintf("cell/%04d", i) }
func crashVal(i int) []byte {
	return []byte(fmt.Sprintf("value-%04d-%s", i, "0123456789abcdefghij"))
}

// lastRecordLen is the on-disk length of the final record the harness
// writes, so cases can express offsets relative to record boundaries.
func lastRecordLen(n int) int64 {
	return int64(recordSize(crashKey(n-1), crashVal(n-1)))
}

func TestCrashRecovery(t *testing.T) {
	const total = 40
	cases := []struct {
		name    string
		durable int                            // records Sync'd before the crash
		corrupt func(t *testing.T, dir string) // applied after Crash()
		// minRecovered is the count of leading records that MUST come
		// back; records beyond it may or may not survive depending on
		// where the corruption lands, but any value served must verify.
		minRecovered int
	}{
		{
			name:         "clean crash, no corruption",
			durable:      total,
			corrupt:      func(t *testing.T, dir string) {},
			minRecovered: total,
		},
		{
			// Records 25..39 were appended but never fsynced: a process
			// kill leaves them in the file, so every one comes back.
			name:         "unsynced tail survives a process kill",
			durable:      25,
			corrupt:      func(t *testing.T, dir string) {},
			minRecovered: total,
		},
		{
			name:    "torn mid-record: half the last record",
			durable: total,
			corrupt: func(t *testing.T, dir string) {
				truncateTail(t, dir, lastRecordLen(total)/2)
			},
			minRecovered: total - 1,
		},
		{
			name:    "torn mid-record: one byte missing",
			durable: total,
			corrupt: func(t *testing.T, dir string) {
				truncateTail(t, dir, 1)
			},
			minRecovered: total - 1,
		},
		{
			name:    "torn inside the record header",
			durable: total,
			corrupt: func(t *testing.T, dir string) {
				truncateTail(t, dir, lastRecordLen(total)-3)
			},
			minRecovered: total - 1,
		},
		{
			name:    "torn across two records",
			durable: total,
			corrupt: func(t *testing.T, dir string) {
				truncateTail(t, dir, lastRecordLen(total)+lastRecordLen(total-1)/2)
			},
			minRecovered: total - 2,
		},
		{
			name:    "bit flip in the last value",
			durable: total,
			corrupt: func(t *testing.T, dir string) {
				flipBit(t, dir, 2, 3) // inside the value bytes
			},
			minRecovered: total - 1,
		},
		{
			name:    "bit flip in the last checksum",
			durable: total,
			corrupt: func(t *testing.T, dir string) {
				// crc field is 4..8 bytes into the record; from the end
				// that is recordLen-5 back for its last byte.
				flipBit(t, dir, lastRecordLen(total)-5, 0)
			},
			minRecovered: total - 1,
		},
		{
			name:    "bit flip in the last length field",
			durable: total,
			corrupt: func(t *testing.T, dir string) {
				flipBit(t, dir, lastRecordLen(total)-1, 6) // inflate payloadLen
			},
			minRecovered: total - 1,
		},
		{
			name:    "segment truncated to bare header",
			durable: total,
			corrupt: func(t *testing.T, dir string) {
				path, size := tailFile(t, dir)
				if err := os.Truncate(path, min64(size, headerSize)); err != nil {
					t.Fatal(err)
				}
			},
			minRecovered: 0,
		},
		{
			name:    "segment header itself torn",
			durable: total,
			corrupt: func(t *testing.T, dir string) {
				path, _ := tailFile(t, dir)
				if err := os.Truncate(path, headerSize/2); err != nil {
					t.Fatal(err)
				}
			},
			minRecovered: 0,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir)
			for i := 0; i < tc.durable; i++ {
				put(t, s, crashKey(i), string(crashVal(i)))
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			for i := tc.durable; i < total; i++ {
				put(t, s, crashKey(i), string(crashVal(i)))
			}
			s.Crash()
			tc.corrupt(t, dir)

			s2 := openT(t, dir)
			// Every record before the corruption horizon is intact …
			for i := 0; i < tc.minRecovered; i++ {
				got, ok := s2.Get(crashKey(i))
				if !ok {
					t.Fatalf("record %d lost (min recovered %d)", i, tc.minRecovered)
				}
				if !bytes.Equal(got, crashVal(i)) {
					t.Fatalf("record %d corrupted: %q", i, got)
				}
			}
			// … and whatever survives beyond it must still verify
			// bit-exactly: a checksummed log never serves a damaged value.
			for i := tc.minRecovered; i < total; i++ {
				if got, ok := s2.Get(crashKey(i)); ok && !bytes.Equal(got, crashVal(i)) {
					t.Fatalf("record %d served corrupt bytes %q", i, got)
				}
			}
			// The store is usable after recovery: write, sync, reopen.
			put(t, s2, "post-crash", "still-writable")
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3 := openT(t, dir)
			defer s3.Close()
			expect(t, s3, "post-crash", "still-writable")
			for i := 0; i < tc.minRecovered; i++ {
				got, ok := s3.Get(crashKey(i))
				if !ok || !bytes.Equal(got, crashVal(i)) {
					t.Fatalf("record %d unstable across second reopen", i)
				}
			}
			if n := s3.Stats().Truncations; n != 0 {
				t.Fatalf("second reopen truncated %d tails; recovery did not persist", n)
			}
		})
	}
}

// TestCrashEveryTruncationOffset sweeps the torn-tail offset across the
// entire final record, byte by byte: whatever prefix of the record hits
// disk, reopen must recover all 10 earlier records and never serve the
// torn one.
func TestCrashEveryTruncationOffset(t *testing.T) {
	const total = 11
	recLen := lastRecordLen(total)
	for cut := int64(1); cut < recLen; cut++ {
		dir := t.TempDir()
		s := openT(t, dir)
		for i := 0; i < total; i++ {
			put(t, s, crashKey(i), string(crashVal(i)))
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		s.Crash()
		truncateTail(t, dir, cut)

		s2 := openT(t, dir)
		if st := s2.Stats(); st.Truncations != 1 {
			t.Fatalf("cut=%d: %d truncations, want 1", cut, st.Truncations)
		}
		for i := 0; i < total-1; i++ {
			got, ok := s2.Get(crashKey(i))
			if !ok || !bytes.Equal(got, crashVal(i)) {
				t.Fatalf("cut=%d: record %d not recovered", cut, i)
			}
		}
		if _, ok := s2.Get(crashKey(total - 1)); ok {
			t.Fatalf("cut=%d: torn record served", cut)
		}
		s2.Close()
	}
}

// TestCrashMidBatchFlushOrder checks that every record synced before a
// Crash comes back, whatever happens to the unsynced one written after
// the last Sync.
func TestCrashMidBatchFlushOrder(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 20; i++ {
		put(t, s, crashKey(i), string(crashVal(i)))
		if i%5 == 4 {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 20 writes in 4 synced batches; a 21st unsynced write may be lost.
	put(t, s, crashKey(20), string(crashVal(20)))
	s.Crash()

	s2 := openT(t, dir)
	defer s2.Close()
	for i := 0; i < 20; i++ {
		got, ok := s2.Get(crashKey(i))
		if !ok || !bytes.Equal(got, crashVal(i)) {
			t.Fatalf("synced record %d lost after crash", i)
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
