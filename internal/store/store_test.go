package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func put(t *testing.T, s *Store, key, val string) {
	t.Helper()
	if err := s.Put(key, []byte(val)); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

func expect(t *testing.T, s *Store, key, want string) {
	t.Helper()
	got, ok := s.Get(key)
	if !ok {
		t.Fatalf("Get(%q): missing, want %q", key, want)
	}
	if string(got) != want {
		t.Fatalf("Get(%q) = %q, want %q", key, got, want)
	}
}

// Open on a directory holding stray <key>.json files — the layout of a
// cache directory written before the segment log — succeeds, leaves the
// files byte-for-byte untouched, and serves none of them: only segment
// records are store contents.
func TestOpenIgnoresStrayJSONFiles(t *testing.T) {
	dir := t.TempDir()
	stray := map[string]string{
		"key-a.json": `{"value":1.5}`,
		"key-b.json": `not json at all`,
	}
	for name, body := range stray {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openT(t, dir)
	for _, key := range []string{"key-a", "key-b", "key-a.json", "key-b.json"} {
		if v, ok := s.Get(key); ok {
			t.Errorf("Get(%q) served %q from a stray file", key, v)
		}
	}
	if n := s.Len(); n != 0 {
		t.Errorf("store indexed %d keys, want 0", n)
	}
	put(t, s, "key-a", "from the log")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name, body := range stray {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("stray %s: %v", name, err)
		}
		if string(got) != body {
			t.Errorf("stray %s rewritten: %q, want %q", name, got, body)
		}
	}
	s2 := openT(t, dir)
	defer s2.Close()
	expect(t, s2, "key-a", "from the log")
}

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 100; i++ {
		put(t, s, fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%03d", i))
	}
	// Read-your-writes before any fsync could have happened.
	expect(t, s, "key-007", "val-007")
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get of an absent key succeeded")
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("late", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: %v, want ErrClosed", err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	if s2.Len() != 100 {
		t.Fatalf("reopened store has %d keys, want 100", s2.Len())
	}
	for i := 0; i < 100; i++ {
		expect(t, s2, fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%03d", i))
	}
	if n := s2.Stats().Truncations; n != 0 {
		t.Fatalf("clean reopen truncated %d tails", n)
	}
}

func TestOverwriteLatestWins(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	put(t, s, "k", "first")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	put(t, s, "k", "second")
	expect(t, s, "k", "second")
	s.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	expect(t, s2, "k", "second")
	if s2.Len() != 1 {
		t.Fatalf("%d keys after overwrite, want 1", s2.Len())
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -2.25e-21, math.MaxFloat64, math.Inf(1), math.NaN(), math.Copysign(0, -1)}
	dir := t.TempDir()
	s := openT(t, dir)
	for i, v := range vals {
		put(t, s, fmt.Sprintf("f%d", i), string(EncodeFloat64(v)))
	}
	s.Close()
	s2 := openT(t, dir)
	defer s2.Close()
	for i, v := range vals {
		b, ok := s2.Get(fmt.Sprintf("f%d", i))
		if !ok {
			t.Fatalf("value %d missing", i)
		}
		got, ok := DecodeFloat64(b)
		if !ok {
			t.Fatalf("value %d: %d bytes", i, len(b))
		}
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("value %d: %g → %g (bits differ)", i, v, got)
		}
	}
}

// TestConcurrentWritersReaders is the store's -race exercise: many
// writers and readers race the syncer, and after a final Sync every
// writer's last value must be durable and visible (read-your-writes
// through reopen).
func TestConcurrentWritersReaders(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)

	const writers = 8
	const perWriter = 200
	var wg, readWG sync.WaitGroup
	stopRead := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-k%03d", w, i%50) // overwrites: the latest write must win
				if err := s.Put(key, []byte(fmt.Sprintf("w%d-i%03d", w, i))); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if i%25 == 0 {
					s.Get(key)
				}
			}
		}(w)
	}
	// Concurrent readers over the whole keyspace.
	for r := 0; r < 4; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				s.Get(fmt.Sprintf("w%d-k%03d", r, r*7%50))
			}
		}(r)
	}
	// Let writers finish, then stop readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrency test wedged")
	}
	close(stopRead)
	readWG.Wait()

	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes after Sync: the last value of every key.
	for w := 0; w < writers; w++ {
		for k := 0; k < 50; k++ {
			key := fmt.Sprintf("w%d-k%03d", w, k)
			want := fmt.Sprintf("w%d-i%03d", w, 150+k) // last write of key k%50 is i=150+k
			expect(t, s, key, want)
		}
	}
	s.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	for w := 0; w < writers; w++ {
		for k := 0; k < 50; k++ {
			expect(t, s2, fmt.Sprintf("w%d-k%03d", w, k), fmt.Sprintf("w%d-i%03d", w, 150+k))
		}
	}
}

func TestFutureVersionRejected(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	put(t, s, "k", "v")
	s.Close()

	// Bump the version field of the (only) segment header.
	path := filepath.Join(dir, "000001.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8] = byte(Version + 1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir); !errors.Is(err, ErrFutureVersion) {
		t.Fatalf("Open of a v%d segment: %v, want ErrFutureVersion", Version+1, err)
	}
	// The future-version file must be untouched (no truncate, no reset).
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data) {
		t.Fatalf("future-version segment modified: %d → %d bytes", len(data), len(after))
	}
}

func TestSyncSurfacesFlushError(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	// Sabotage the active segment's file handle: further appends fail.
	s.mu.Lock()
	s.segs[len(s.segs)-1].Close()
	s.mu.Unlock()
	if err := s.Put("k", []byte("v")); err == nil {
		t.Fatal("Put returned nil after an append to a closed file")
	}
	if err := s.Sync(); err == nil {
		t.Fatal("Sync returned nil after a sticky write error")
	}
	if cerr := s.Close(); cerr == nil {
		t.Fatal("Close returned nil after a sticky write error")
	}
}

// A Put is fsynced by the syncer with no Sync call, one tick after it
// returns (the deadline leaves a second for scheduling), and an idle
// store issues no further fsyncs.
func TestPutSyncedWithinTick(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	if n := s.Stats().Syncs; n != 0 {
		t.Fatalf("%d fsyncs before any Put", n)
	}
	put(t, s, "k", "v")
	deadline := time.Now().Add(syncEvery + time.Second)
	for s.Stats().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Put not fsynced %v after it returned", syncEvery+time.Second)
		}
		time.Sleep(time.Millisecond)
	}
	// Nothing is left to fsync: an idle store stays idle.
	time.Sleep(3 * syncEvery)
	if n := s.Stats().Syncs; n != 1 {
		t.Fatalf("%d fsyncs for one Put, want 1", n)
	}
}

// A second Open of a directory an open store holds fails with
// ErrLocked instead of interleaving two logs in one segment file; the
// directory opens again once the holder is closed or crashed.
func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	put(t, s, "k", "held")
	if s2, err := Open(dir); !errors.Is(err, ErrLocked) {
		if err == nil {
			s2.Close()
		}
		t.Fatalf("second Open: %v, want ErrLocked", err)
	}
	expect(t, s, "k", "held")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openT(t, dir)
	expect(t, s, "k", "held")
	s.Crash()

	s = openT(t, dir)
	defer s.Close()
	expect(t, s, "k", "held")
}

// A directory written by a store that rotated and compacted segments —
// here 000001.seg and 000003.seg with a key superseded across them,
// plus the temporary file of an interrupted compaction — serves every
// key's latest value, ignores the stray file, and appends new records
// to the highest-numbered segment only.
func TestOpenReplaysParentSegments(t *testing.T) {
	dir := t.TempDir()
	segment := func(kv ...string) []byte {
		b := encodeHeader()
		for i := 0; i < len(kv); i += 2 {
			b = AppendRecord(b, kv[i], []byte(kv[i+1]))
		}
		return b
	}
	files := map[string][]byte{
		"000001.seg":         segment("a", "a-old", "b", "b-only-in-1"),
		"000003.seg":         segment("c", "c-only-in-3", "a", "a-new"),
		"000003.seg.compact": segment("a", "from-an-interrupted-compaction", "z", "z"),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := openT(t, dir)
	want := map[string]string{"a": "a-new", "b": "b-only-in-1", "c": "c-only-in-3"}
	for k, v := range want {
		expect(t, s, k, v)
	}
	if v, ok := s.Get("z"); ok {
		t.Fatalf("Get(z) served %q from the stray compaction file", v)
	}
	if s.Len() != len(want) {
		t.Fatalf("%d keys, want %d", s.Len(), len(want))
	}
	put(t, s, "d", "new")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for name, data := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "000003.seg" {
			data = AppendRecord(data, "d", []byte("new"))
		}
		if !bytes.Equal(got, data) {
			t.Errorf("%s: %d bytes after the put, want %d", name, len(got), len(data))
		}
	}
	if ids, _ := segmentIDs(dir); len(ids) != 2 {
		t.Errorf("segments %v, want [1 3]", ids)
	}

	s = openT(t, dir)
	defer s.Close()
	want["d"] = "new"
	for k, v := range want {
		expect(t, s, k, v)
	}
}
