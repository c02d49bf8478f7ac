package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// syncEvery is the syncer's tick: the longest an appended record waits
// for its fsync when no Sync or Close comes first.
const syncEvery = 25 * time.Millisecond

// ref locates the latest value of one key.
type ref struct {
	seg  int   // index into Store.segs
	off  int64 // file offset of the value bytes
	vlen int
}

// Store is an open segment-log store. All methods are safe for
// concurrent use.
type Store struct {
	dir string
	// segs holds every segment file in id order, fixed at Open. The
	// last is the active segment: the only one written, and the one
	// whose lock claims the directory.
	segs []*os.File

	mu       sync.Mutex
	index    map[string]ref
	size     int64 // bytes in the active segment
	unsynced bool  // records appended since the last fsync began
	closed   bool
	crashed  bool
	err      error // sticky write or fsync error
	puts     uint64

	syncMu   sync.Mutex // serializes fsyncs and the final close of the files
	stop     chan struct{}
	syncerWG sync.WaitGroup

	syscalls    uint64 // atomic: write-path syscalls (write, fsync, open, truncate)
	syncs       uint64 // atomic
	truncations int
}

// Stats is a point-in-time snapshot of the store's traffic and shape.
type Stats struct {
	Puts        uint64 // Put calls accepted
	Syncs       uint64 // fsyncs of appended records
	Syscalls    uint64 // write-path syscalls issued since Open
	Truncations int    // torn/corrupt tails truncated during Open
	Records     int    // live keys in the index
}

// Open opens (creating if needed) the store rooted at dir. It locks
// the directory — a second Open fails with ErrLocked until the first
// store is closed or its process dies — then replays every segment
// file in id order to rebuild the index, truncating any torn tail;
// every other file in dir is left untouched and never served. The
// returned store runs one syncer goroutine; Close it to fsync and
// release it.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, index: make(map[string]ref), stop: make(chan struct{})}
	if err := s.replay(); err != nil {
		s.closeFiles()
		return nil, err
	}
	s.syncerWG.Add(1)
	go s.syncer()
	return s, nil
}

// segPath returns the path of segment id.
func (s *Store) segPath(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%06d.seg", id))
}

// segmentIDs lists the ids of the segment files present in dir, sorted.
func segmentIDs(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var ids []int
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".seg") {
			continue
		}
		id, err := strconv.Atoi(strings.TrimSuffix(name, ".seg"))
		if err != nil || id <= 0 {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

// replay opens every segment file, locks the highest-numbered one (the
// active segment, creating 000001.seg in an empty directory), and only
// then reads them in id order into the index — so no store ever reads
// or truncates a segment another open store is appending to. Later
// records supersede earlier ones.
func (s *Store) replay() error {
	ids, err := segmentIDs(s.dir)
	if err != nil {
		return err
	}
	flag := os.O_RDWR
	if len(ids) == 0 {
		ids = []int{1}
		flag |= os.O_CREATE
	}
	for _, id := range ids {
		f, err := os.OpenFile(s.segPath(id), flag, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.segs = append(s.segs, f)
		s.sys(1)
	}
	if err := lockFile(s.segs[len(s.segs)-1]); errors.Is(err, ErrLocked) {
		return fmt.Errorf("%w: %s", err, s.dir)
	} else if err != nil {
		return fmt.Errorf("store: locking %s: %w", s.dir, err)
	}
	for i, id := range ids {
		size, err := s.replaySegment(i, id)
		if err != nil {
			return err
		}
		s.size = size
	}
	if flag&os.O_CREATE != 0 {
		s.syncDir()
	}
	return nil
}

// replaySegment reads segment id (s.segs[i]) into the index and
// returns its valid length. For the active (last) segment — the only
// one a crash can tear — an empty file or a bad header resets the file,
// and a torn or corrupt record truncates it at the last valid record.
// Earlier segments were sealed by a store that rotated, but the same
// checksum-guarded truncation applies: a record that does not verify is
// never served.
func (s *Store) replaySegment(i, id int) (int64, error) {
	path := s.segPath(id)
	f := s.segs[i]
	active := i == len(s.segs)-1
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	s.sys(1)

	if active && len(data) == 0 {
		// Freshly created (or created and never written): give it a
		// durable header.
		if err := resetSegmentFile(f); err != nil {
			return 0, err
		}
		s.sys(3)
		return headerSize, nil
	}
	if err := checkHeader(data); err != nil {
		if active && !errors.Is(err, ErrFutureVersion) {
			// A torn header means the segment was created but never
			// fsynced past its header write: it provably holds no
			// durable records. Reset it.
			if err := resetSegmentFile(f); err != nil {
				return 0, err
			}
			s.sys(3)
			s.truncations++
			mTruncations.Inc()
			return headerSize, nil
		}
		return 0, fmt.Errorf("store: %s: %w", path, err)
	}

	off := int64(headerSize)
	for int(off) < len(data) {
		key, val, n, derr := DecodeRecord(data[off:])
		if derr != nil {
			// Torn or corrupt tail: truncate to the last valid record.
			if terr := f.Truncate(off); terr != nil {
				return 0, fmt.Errorf("store: truncating %s: %w", path, terr)
			}
			if terr := f.Sync(); terr != nil {
				return 0, fmt.Errorf("store: %w", terr)
			}
			s.sys(2)
			s.truncations++
			mTruncations.Inc()
			break
		}
		s.index[key] = ref{seg: i, off: off + int64(valueOffset(key)), vlen: len(val)}
		off += int64(n)
	}
	return off, nil
}

// resetSegmentFile rewrites f as a fresh, empty segment.
func resetSegmentFile(f *os.File) error {
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.WriteAt(encodeHeader(), 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// syncDir fsyncs the store directory (best-effort: some filesystems
// reject directory fsync; a failure only widens the crash window by one
// dirent, it cannot corrupt data).
func (s *Store) syncDir() {
	d, err := os.Open(s.dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
	s.sys(3)
}

// sys counts write-path syscalls (benchmarks read them via Stats).
func (s *Store) sys(n uint64) { atomic.AddUint64(&s.syscalls, n) }

// Put stores value under key: it appends one record to the active
// segment with a single write and then indexes it, so Get observes it
// at once and it survives a process kill as soon as Put returns. It is
// fsynced within one syncer tick, or by the next Sync or Close. After a
// write or fsync failure every Put returns that error.
func (s *Store) Put(key string, val []byte) error {
	rec := AppendRecord(nil, key, val)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.err != nil {
		return s.err
	}
	seg, base := len(s.segs)-1, s.size
	_, err := s.segs[seg].WriteAt(rec, base)
	s.sys(1)
	if err != nil {
		// Torn bytes at the tail are exactly what replay truncates.
		s.err = fmt.Errorf("store: append: %w", err)
		return s.err
	}
	s.size += int64(len(rec))
	s.index[key] = ref{seg: seg, off: base + int64(valueOffset(key)), vlen: len(val)}
	s.unsynced = true
	s.puts++
	mPuts.Inc()
	mAppendBytes.Add(uint64(len(rec)))
	return nil
}

// Get returns the value stored under key: one pread through the index.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	r, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	out := make([]byte, r.vlen)
	if _, err := s.segs[r.seg].ReadAt(out, r.off); err != nil {
		return nil, false
	}
	return out, true
}

// Sync fsyncs the active segment if any record is unsynced and returns
// once every Put accepted before the call is durable, or with the
// store's sticky error if a write or fsync failed (the records appended
// before a failed write are still fsynced). Fsyncs are serialized: a
// Sync that waits out another caller's fsync still returns only after
// its own records are on disk. After Close it returns Close's error.
func (s *Store) Sync() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	unsynced, crashed := s.unsynced, s.crashed
	s.unsynced = false
	f := s.segs[len(s.segs)-1]
	s.mu.Unlock()
	if crashed {
		return ErrClosed
	}
	var err error
	if unsynced {
		sp := mFsyncLatency.Start()
		err = f.Sync()
		sp.End()
		s.sys(1)
		atomic.AddUint64(&s.syncs, 1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("store: fsync: %w", err)
	}
	return s.err
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats returns a snapshot of the store's counters and shape.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Puts:        s.puts,
		Syncs:       atomic.LoadUint64(&s.syncs),
		Syscalls:    atomic.LoadUint64(&s.syscalls),
		Truncations: s.truncations,
		Records:     len(s.index),
	}
}

// Close fsyncs what is unsynced and releases the store and its
// directory lock. Further Puts fail with ErrClosed.
func (s *Store) Close() error {
	if !s.shut(false) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.err
	}
	err := s.Sync()
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.closeFiles()
	return err
}

// Crash abandons the store without an fsync: file handles are closed
// as-is (releasing the directory lock), leaving the directory exactly
// as a process kill would — every accepted Put is in the file, durable
// only as far as the OS wrote it back. It is a test hook for
// crash-recovery coverage; production code uses Close.
func (s *Store) Crash() {
	if !s.shut(true) {
		return
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.closeFiles()
}

// shut marks the store closed (and crashed) and stops the syncer. It
// reports false if the store was already closed.
func (s *Store) shut(crash bool) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.closed, s.crashed = true, crash
	s.mu.Unlock()
	close(s.stop)
	s.syncerWG.Wait()
	return true
}

func (s *Store) closeFiles() {
	for _, f := range s.segs {
		f.Close()
	}
}

// syncer is the store's one goroutine: on every tick it fsyncs the
// records appended since the last fsync.
func (s *Store) syncer() {
	defer s.syncerWG.Done()
	t := time.NewTicker(syncEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			_ = s.Sync()
		}
	}
}
