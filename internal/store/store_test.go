package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fastOpts keeps tests snappy: small segments and instant flushing.
func fastOpts() Options {
	return Options{
		FlushEvery:      time.Millisecond,
		CompactFraction: 2, // manual compaction only, unless a test overrides
	}
}

func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
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
	s := openT(t, dir, fastOpts())
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
	s2 := openT(t, dir, fastOpts())
	defer s2.Close()
	expect(t, s2, "key-a", "from the log")
}

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, fastOpts())
	for i := 0; i < 100; i++ {
		put(t, s, fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%03d", i))
	}
	// Read-your-writes before any flush could have happened.
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

	s2 := openT(t, dir, fastOpts())
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
	s := openT(t, dir, fastOpts())
	put(t, s, "k", "first")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	put(t, s, "k", "second")
	expect(t, s, "k", "second")
	s.Close()

	s2 := openT(t, dir, fastOpts())
	defer s2.Close()
	expect(t, s2, "k", "second")
	if s2.Len() != 1 {
		t.Fatalf("%d keys after overwrite, want 1", s2.Len())
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	opts.MaxSegmentBytes = 256 // a few records per segment
	s := openT(t, dir, opts)
	for i := 0; i < 50; i++ {
		put(t, s, fmt.Sprintf("key-%03d", i), "0123456789abcdef")
		// Per-record Sync forces one batch per record, growing the
		// active segment past the rotation threshold repeatedly.
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments < 3 {
		t.Fatalf("only %d segments after 50 oversized appends", st.Segments)
	}
	s.Close()

	s2 := openT(t, dir, opts)
	defer s2.Close()
	for i := 0; i < 50; i++ {
		expect(t, s2, fmt.Sprintf("key-%03d", i), "0123456789abcdef")
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	opts.MaxSegmentBytes = 512
	s := openT(t, dir, opts)
	// Write every key several times so sealed segments fill with
	// superseded records.
	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			put(t, s, fmt.Sprintf("key-%02d", i), fmt.Sprintf("round-%d-value-%02d", round, i))
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := s.Stats()
	if before.SealedDead == 0 {
		t.Fatal("no dead sealed records to compact; test setup is wrong")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Compactions != before.Compactions+1 {
		t.Fatalf("compactions %d, want %d", after.Compactions, before.Compactions+1)
	}
	if after.SealedDead != 0 {
		t.Fatalf("%d dead sealed records survived compaction", after.SealedDead)
	}
	if after.Segments >= before.Segments {
		t.Fatalf("segments %d → %d; compaction reclaimed nothing", before.Segments, after.Segments)
	}
	for i := 0; i < 20; i++ {
		expect(t, s, fmt.Sprintf("key-%02d", i), fmt.Sprintf("round-4-value-%02d", i))
	}
	// Disk usage shrank: the dead rounds are gone.
	s.Close()
	s2 := openT(t, dir, opts)
	defer s2.Close()
	if s2.Len() != 20 {
		t.Fatalf("%d keys after compacted reopen, want 20", s2.Len())
	}
	for i := 0; i < 20; i++ {
		expect(t, s2, fmt.Sprintf("key-%02d", i), fmt.Sprintf("round-4-value-%02d", i))
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	opts.MaxSegmentBytes = 512
	opts.CompactFraction = 0.5
	opts.CompactMinDead = 1
	s := openT(t, dir, opts)
	defer s.Close()
	for round := 0; round < 6; round++ {
		for i := 0; i < 20; i++ {
			put(t, s, fmt.Sprintf("key-%02d", i), fmt.Sprintf("round-%d-value-%02d", round, i))
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("automatic compaction never triggered")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		expect(t, s, fmt.Sprintf("key-%02d", i), fmt.Sprintf("round-5-value-%02d", i))
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -2.25e-21, math.MaxFloat64, math.Inf(1), math.NaN(), math.Copysign(0, -1)}
	dir := t.TempDir()
	s := openT(t, dir, fastOpts())
	for i, v := range vals {
		put(t, s, fmt.Sprintf("f%d", i), string(EncodeFloat64(v)))
	}
	s.Close()
	s2 := openT(t, dir, fastOpts())
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

// TestConcurrentWritersReadersCompaction is the store's -race exercise:
// many writers and readers race a compaction mid-stream, and after a
// final Sync every writer's last value must be durable and visible
// (read-your-writes through reopen).
func TestConcurrentWritersReadersCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	opts.MaxSegmentBytes = 4 << 10
	s := openT(t, dir, opts)

	const writers = 8
	const perWriter = 200
	var wg, readWG sync.WaitGroup
	stopRead := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-k%03d", w, i%50) // overwrites → garbage for compaction
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
	// Compactions racing the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.Compact(); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("Compact: %v", err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

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

	s2 := openT(t, dir, opts)
	defer s2.Close()
	for w := 0; w < writers; w++ {
		for k := 0; k < 50; k++ {
			expect(t, s2, fmt.Sprintf("w%d-k%03d", w, k), fmt.Sprintf("w%d-i%03d", w, 150+k))
		}
	}
}

func TestBackpressureBounded(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	opts.MaxPendingBytes = 1 << 10
	s := openT(t, dir, opts)
	defer s.Close()
	// Far more than MaxPendingBytes of writes must all be accepted —
	// Put blocks for the flusher instead of failing.
	for i := 0; i < 2000; i++ {
		put(t, s, fmt.Sprintf("key-%04d", i), "some-value-larger-than-a-float")
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2000 {
		t.Fatalf("%d keys, want 2000", s.Len())
	}
}

func TestFutureVersionRejected(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, fastOpts())
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

	if _, err := Open(dir, fastOpts()); !errors.Is(err, ErrFutureVersion) {
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
	s := openT(t, dir, fastOpts())
	// Sabotage the active segment's file handle: further flushes fail.
	s.mu.Lock()
	s.active.f.Close()
	s.mu.Unlock()
	_ = s.Put("k", []byte("v"))
	err := s.Sync()
	if err == nil {
		t.Fatal("Sync returned nil after a flush to a closed file")
	}
	if cerr := s.Close(); cerr == nil {
		t.Fatal("Close returned nil after a sticky flush error")
	}
}
