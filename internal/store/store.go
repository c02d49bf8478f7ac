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

// Write-behind tuning for the campaign cache workload: 84-byte cell
// records in bursts of thousands per second.
const (
	// flushEvery is the flusher's tick: the longest a quiet-period write
	// sits in memory before reaching disk.
	flushEvery = 25 * time.Millisecond
	// flushBytes of buffered records trigger a batch flush between ticks.
	flushBytes = 256 << 10
	// maxPendingBytes bounds the write-behind buffer. Put blocks only
	// when it is full — backpressure for a disk that cannot keep up,
	// never a per-write stall.
	maxPendingBytes = 8 << 20
)

// ref locates the latest durable value of one key.
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
	cond     *sync.Cond // broadcast after every completed flush
	index    map[string]ref
	pending  map[string][]byte // written, not yet picked up by the flusher
	pendBy   int
	flushing map[string][]byte // the batch the flusher is writing right now
	size     int64             // bytes in the active segment
	closed   bool
	crashed  bool
	err      error // sticky flush I/O error

	kick      chan struct{}
	stop      chan struct{}
	flusherWG sync.WaitGroup

	puts        uint64 // atomic
	syscalls    uint64 // atomic: write-path syscalls (write, fsync, open, truncate)
	batches     uint64
	batchedRecs uint64
	truncations int
}

// Stats is a point-in-time snapshot of the store's traffic and shape.
type Stats struct {
	Puts           uint64 // Put calls accepted
	Batches        uint64 // flusher batches written
	BatchedRecords uint64 // records across all batches
	Syscalls       uint64 // write-path syscalls issued since Open
	Truncations    int    // torn/corrupt tails truncated during Open
	Records        int    // live keys in the index
}

// Open opens (creating if needed) the store rooted at dir. It locks
// the directory — a second Open fails with ErrLocked until the first
// store is closed or its process dies — then replays every segment
// file in id order to rebuild the index, truncating any torn tail;
// every other file in dir is left untouched and never served. The
// returned store has a running flusher; Close it to drain and release
// it.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		index:   make(map[string]ref),
		pending: make(map[string][]byte),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.replay(); err != nil {
		s.closeFiles()
		return nil, err
	}
	s.flusherWG.Add(1)
	go s.flusher()
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

// Put stores value under key. The write is buffered in memory and
// becomes durable at the next flush (ticker, size threshold, Sync, or
// Close); Get observes it immediately. Put blocks only when the
// write-behind buffer is full. The value is copied.
func (s *Store) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return ErrClosed
		}
		if s.err != nil {
			return s.err
		}
		if s.pendBy < maxPendingBytes {
			break
		}
		s.kickLocked()
		s.cond.Wait()
	}
	if old, ok := s.pending[key]; ok {
		s.pendBy -= recordSize(key, old)
	}
	s.pending[key] = append([]byte(nil), val...)
	s.pendBy += recordSize(key, val)
	atomic.AddUint64(&s.puts, 1)
	mPuts.Inc()
	if s.pendBy >= flushBytes {
		s.kickLocked()
	}
	return nil
}

// kickLocked nudges the flusher without blocking.
func (s *Store) kickLocked() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Get returns the value stored under key: the write-behind buffer
// first (read-your-writes), then one pread through the index.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	v, ok := s.pending[key]
	if !ok {
		v, ok = s.flushing[key]
	}
	if ok {
		out := append([]byte(nil), v...)
		s.mu.Unlock()
		return out, true
	}
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

// Sync blocks until every Put accepted before the call is durable on
// disk (flushed and fsynced), returning the store's sticky flush error
// if one occurred.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for (len(s.pending) > 0 || s.flushing != nil) && !s.closed && s.err == nil {
		s.kickLocked()
		s.cond.Wait()
	}
	if s.err != nil {
		return s.err
	}
	if s.closed && !s.crashed {
		return nil // Close drained everything
	}
	if s.closed {
		return ErrClosed
	}
	return nil
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
		Puts:           atomic.LoadUint64(&s.puts),
		Batches:        s.batches,
		BatchedRecords: s.batchedRecs,
		Syscalls:       atomic.LoadUint64(&s.syscalls),
		Truncations:    s.truncations,
		Records:        len(s.index),
	}
}

// Close drains the write-behind buffer to disk, fsyncs, and releases
// the store and its directory lock. Further Puts fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		err := s.err
		s.mu.Unlock()
		return err
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	close(s.stop)
	s.flusherWG.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeFiles()
	return s.err
}

// Crash abandons the store without flushing: buffered writes are
// dropped and file handles are closed as-is (releasing the directory
// lock), leaving the directory exactly as a process kill would. It is a
// test hook for crash-recovery coverage; production code uses Close.
func (s *Store) Crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.crashed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	close(s.stop)
	s.flusherWG.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeFiles()
}

func (s *Store) closeFiles() {
	for _, f := range s.segs {
		f.Close()
	}
}

// flusher is the dedicated write-behind goroutine: it batches buffered
// records into one write + one fsync per flush.
func (s *Store) flusher() {
	defer s.flusherWG.Done()
	t := time.NewTicker(flushEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			s.mu.Lock()
			crashed := s.crashed
			s.mu.Unlock()
			if !crashed {
				s.flushOnce() // final drain
			}
			return
		case <-t.C:
		case <-s.kick:
		}
		s.flushOnce()
	}
}

// flushOnce appends the current buffer to the active segment as one
// batch: encode every pending record, one WriteAt, one fsync, then
// publish the new index refs. Errors are sticky — the store keeps
// serving reads and memory writes, but reports the failure on
// Put/Sync/Close.
func (s *Store) flushOnce() {
	s.mu.Lock()
	if len(s.pending) == 0 || s.err != nil {
		s.mu.Unlock()
		return
	}
	batch := s.pending
	s.pending = make(map[string][]byte)
	s.pendBy = 0
	s.flushing = batch
	base := s.size
	s.mu.Unlock()

	sp := mFlushLatency.Start()
	// Batches are written in sorted key order so the on-disk byte
	// stream is a deterministic function of the accepted writes.
	keys := make([]string, 0, len(batch))
	for k := range batch {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	seg := len(s.segs) - 1
	var buf []byte
	refs := make([]ref, len(keys))
	for i, k := range keys {
		v := batch[k]
		refs[i] = ref{seg: seg, off: base + int64(len(buf)) + int64(valueOffset(k)), vlen: len(v)}
		buf = AppendRecord(buf, k, v)
	}
	f := s.segs[seg]
	var werr error
	if _, err := f.WriteAt(buf, base); err != nil {
		werr = err
	} else if err := f.Sync(); err != nil {
		werr = err
	}
	s.sys(2)
	sp.End()

	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.cond.Broadcast()
	s.flushing = nil
	if werr != nil {
		// The batch may be partially on disk with no fsync; put it back
		// in front so a later recovery of the disk retries it. The torn
		// bytes on disk are exactly what replay truncates.
		for k, v := range batch {
			if _, ok := s.pending[k]; !ok {
				s.pending[k] = v
				s.pendBy += recordSize(k, v)
			}
		}
		s.err = fmt.Errorf("store: flush: %w", werr)
		return
	}
	s.size = base + int64(len(buf))
	for i, k := range keys {
		s.index[k] = refs[i]
	}
	s.batches++
	s.batchedRecs += uint64(len(keys))
	mBatches.Inc()
	mBatchRecords.Add(uint64(len(keys)))
	mAppendBytes.Add(uint64(len(buf)))
}
