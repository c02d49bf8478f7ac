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

// Options configure Open. The zero value selects the defaults, which
// suit the campaign cache workload (tens of bytes per record, bursts of
// thousands of writes per second); tests shrink the thresholds to force
// rotation and compaction on small data.
type Options struct {
	// MaxSegmentBytes rotates the active segment once it grows past
	// this size (0 = 64 MiB).
	MaxSegmentBytes int64
	// FlushEvery is the flusher's ticker interval: the longest a
	// quiet-period write sits in memory before reaching disk
	// (0 = 25 ms).
	FlushEvery time.Duration
	// FlushBytes is the size threshold that triggers an immediate batch
	// flush between ticks (0 = 256 KiB).
	FlushBytes int
	// MaxPendingBytes bounds the write-behind buffer. Put blocks only
	// when the buffer is full — backpressure for a disk that cannot
	// keep up, never a per-write stall (0 = 8 MiB).
	MaxPendingBytes int
	// CompactFraction triggers automatic compaction when at least this
	// fraction of the records in sealed segments is superseded
	// (0 = 0.5; ≥ 1 disables automatic compaction).
	CompactFraction float64
	// CompactMinDead is the minimum number of superseded sealed records
	// before automatic compaction is considered (0 = 1024).
	CompactMinDead int
}

func (o *Options) defaults() {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 64 << 20
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = 25 * time.Millisecond
	}
	if o.FlushBytes <= 0 {
		o.FlushBytes = 256 << 10
	}
	if o.MaxPendingBytes <= 0 {
		o.MaxPendingBytes = 8 << 20
	}
	if o.CompactFraction == 0 {
		o.CompactFraction = 0.5
	}
	if o.CompactMinDead <= 0 {
		o.CompactMinDead = 1024
	}
}

// ref locates the latest durable value of one key.
type ref struct {
	seg  int   // segment id
	off  int64 // file offset of the value bytes
	vlen int
}

// segment is one on-disk log file plus its liveness accounting.
type segment struct {
	id    int
	f     *os.File
	size  int64
	total int // records written
	live  int // records still current in the index
}

// Store is an open segment-log store. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond // broadcast after every completed flush
	index    map[string]ref
	pending  map[string][]byte // written, not yet picked up by the flusher
	pendBy   int
	flushing map[string][]byte // the batch the flusher is writing right now
	segs     map[int]*segment
	active   *segment
	closed   bool
	crashed  bool
	err      error // sticky flush I/O error

	kick      chan struct{}
	stop      chan struct{}
	flusherWG sync.WaitGroup
	compactMu sync.Mutex // serializes Compact calls

	puts        uint64 // atomic
	syscalls    uint64 // atomic: write-path syscalls (write, fsync, open, rename, unlink)
	batches     uint64
	batchedRecs uint64
	compactions uint64
	truncations int
}

// Stats is a point-in-time snapshot of the store's traffic and shape.
type Stats struct {
	Puts           uint64 // Put calls accepted
	Batches        uint64 // flusher batches written
	BatchedRecords uint64 // records across all batches
	Syscalls       uint64 // write-path syscalls issued since Open
	Compactions    uint64
	Truncations    int // torn/corrupt tails truncated during Open
	Records        int // live keys in the index
	Segments       int
	SealedRecords  int // records in sealed segments
	SealedDead     int // superseded records in sealed segments
}

// Open opens (creating if needed) the store rooted at dir. Segment
// files are replayed to rebuild the index, truncating any torn tail;
// every other file in dir is left untouched and never served. The
// returned store has a running flusher; Close it to drain and release
// it.
func Open(dir string, opts Options) (*Store, error) {
	opts.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		index:   make(map[string]ref),
		pending: make(map[string][]byte),
		segs:    make(map[int]*segment),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)

	// Leftovers of an interrupted compaction are incomplete by
	// definition (the rename is the commit point): discard them.
	stray, _ := filepath.Glob(filepath.Join(dir, "*"+compactSuffix))
	for _, p := range stray {
		os.Remove(p)
		s.sys(1)
	}

	if err := s.replay(); err != nil {
		s.closeFiles()
		return nil, err
	}
	s.flusherWG.Add(1)
	go s.flusher()
	mSegments.Set(int64(len(s.segs)))
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

// replay opens every segment file in id order, rebuilds the index, and
// truncates torn or corrupt tails. The highest-numbered segment becomes
// the active one.
func (s *Store) replay() error {
	ids, err := segmentIDs(s.dir)
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		seg, err := s.createSegment(1)
		if err != nil {
			return err
		}
		s.segs[1] = seg
		s.active = seg
		return nil
	}
	for i, id := range ids {
		last := i == len(ids)-1
		seg, err := s.replaySegment(id, last)
		if err != nil {
			return err
		}
		s.segs[id] = seg
		if last {
			s.active = seg
		}
	}
	return nil
}

// replaySegment reads one segment file into the index. For the
// highest-numbered (last) segment — the only one a crash can tear — a
// bad header resets the file and a torn or corrupt record truncates it
// at the last valid record. Earlier segments were sealed by a clean
// rotation, but the same checksum-guarded truncation applies: a record
// that does not verify is never served.
func (s *Store) replaySegment(id int, last bool) (*segment, error) {
	path := s.segPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.sys(2)

	if err := checkHeader(data); err != nil {
		if last && !errors.Is(err, ErrFutureVersion) {
			// A torn header means the segment was created but never
			// fsynced past its header write: it provably holds no
			// durable records. Reset it.
			if err := resetSegmentFile(f); err != nil {
				f.Close()
				return nil, err
			}
			s.sys(3)
			s.truncations++
			mTruncations.Inc()
			return &segment{id: id, f: f, size: headerSize}, nil
		}
		f.Close()
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}

	seg := &segment{id: id, f: f}
	off := int64(headerSize)
	for int(off) < len(data) {
		key, val, n, derr := DecodeRecord(data[off:])
		if derr != nil {
			// Torn or corrupt tail: truncate to the last valid record.
			if terr := f.Truncate(off); terr != nil {
				f.Close()
				return nil, fmt.Errorf("store: truncating %s: %w", path, terr)
			}
			if terr := f.Sync(); terr != nil {
				f.Close()
				return nil, fmt.Errorf("store: %w", terr)
			}
			s.sys(2)
			s.truncations++
			mTruncations.Inc()
			break
		}
		if old, ok := s.index[key]; ok {
			if old.seg == id {
				// Superseded within this very segment, which is not in
				// s.segs until replay finishes.
				seg.live--
			} else if o := s.segs[old.seg]; o != nil {
				o.live--
			}
		}
		s.index[key] = ref{seg: id, off: off + int64(valueOffset(key)), vlen: len(val)}
		seg.total++
		seg.live++
		off += int64(n)
	}
	seg.size = off
	return seg, nil
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

// createSegment creates segment id with a durable header, fsyncing the
// directory so the file itself survives a crash.
func (s *Store) createSegment(id int) (*segment, error) {
	f, err := os.OpenFile(s.segPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := resetSegmentFile(f); err != nil {
		f.Close()
		return nil, err
	}
	s.sys(4)
	s.syncDir()
	return &segment{id: id, f: f, size: headerSize}, nil
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
// write-behind buffer is at MaxPendingBytes. The value is copied.
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
		if s.pendBy < s.opts.MaxPendingBytes {
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
	if s.pendBy >= s.opts.FlushBytes {
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
	// A concurrent compaction can retire the segment file between the
	// index lookup and the pread; re-resolving the ref once covers it.
	for attempt := 0; attempt < 2; attempt++ {
		s.mu.Lock()
		if v, ok := s.pending[key]; ok {
			out := append([]byte(nil), v...)
			s.mu.Unlock()
			return out, true
		}
		if v, ok := s.flushing[key]; ok {
			out := append([]byte(nil), v...)
			s.mu.Unlock()
			return out, true
		}
		r, ok := s.index[key]
		if !ok {
			s.mu.Unlock()
			return nil, false
		}
		seg := s.segs[r.seg]
		if seg == nil {
			s.mu.Unlock()
			continue
		}
		f := seg.f
		s.mu.Unlock()
		out := make([]byte, r.vlen)
		if _, err := f.ReadAt(out, r.off); err == nil {
			return out, true
		}
	}
	return nil, false
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
	st := Stats{
		Puts:           atomic.LoadUint64(&s.puts),
		Batches:        s.batches,
		BatchedRecords: s.batchedRecs,
		Syscalls:       atomic.LoadUint64(&s.syscalls),
		Compactions:    s.compactions,
		Truncations:    s.truncations,
		Records:        len(s.index),
		Segments:       len(s.segs),
	}
	for _, seg := range s.segs {
		if seg == s.active {
			continue
		}
		st.SealedRecords += seg.total
		st.SealedDead += seg.total - seg.live
	}
	return st
}

// Close drains the write-behind buffer to disk, fsyncs, and releases
// the store. Further Puts fail with ErrClosed.
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
// dropped and file handles are closed as-is, leaving the directory
// exactly as a process kill would. It is a test hook for crash-recovery
// coverage; production code uses Close.
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
	for _, seg := range s.segs {
		if seg.f != nil {
			seg.f.Close()
			seg.f = nil
		}
	}
}

// flusher is the dedicated write-behind goroutine: it batches buffered
// records into one write + one fsync per flush, rotates oversized
// segments, and triggers compaction when sealed garbage accumulates.
func (s *Store) flusher() {
	defer s.flusherWG.Done()
	t := time.NewTicker(s.opts.FlushEvery)
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
		s.maybeCompact()
	}
}

// flushOnce writes the current buffer as one batch: encode every
// pending record, one WriteAt, one fsync, then publish the new index
// refs. Errors are sticky — the store keeps serving reads and memory
// writes, but reports the failure on Put/Sync/Close.
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
	seg := s.active
	base := seg.size
	s.mu.Unlock()

	sp := mFlushLatency.Start()
	// Batches are written in sorted key order so the on-disk byte
	// stream is a deterministic function of the accepted writes.
	keys := make([]string, 0, len(batch))
	for k := range batch {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf []byte
	type loc struct {
		key  string
		off  int64
		vlen int
	}
	locs := make([]loc, 0, len(batch))
	for _, k := range keys {
		v := batch[k]
		locs = append(locs, loc{key: k, off: base + int64(len(buf)) + int64(valueOffset(k)), vlen: len(v)})
		buf = AppendRecord(buf, k, v)
	}
	var werr error
	if _, err := seg.f.WriteAt(buf, base); err != nil {
		werr = err
	} else if err := seg.f.Sync(); err != nil {
		werr = err
	}
	s.sys(2)
	sp.End()

	s.mu.Lock()
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
		s.flushing = nil
		s.err = fmt.Errorf("store: flush: %w", werr)
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	seg.size = base + int64(len(buf))
	seg.total += len(locs)
	seg.live += len(locs)
	for _, l := range locs {
		if old, ok := s.index[l.key]; ok {
			if o := s.segs[old.seg]; o != nil {
				o.live--
			}
		}
		s.index[l.key] = ref{seg: seg.id, off: l.off, vlen: l.vlen}
	}
	s.flushing = nil
	s.batches++
	s.batchedRecs += uint64(len(locs))
	mBatches.Inc()
	mBatchRecords.Add(uint64(len(locs)))
	mAppendBytes.Add(uint64(len(buf)))
	rotate := seg.size >= s.opts.MaxSegmentBytes
	s.cond.Broadcast()
	s.mu.Unlock()

	if rotate {
		s.rotate()
	}
}

// rotate seals the active segment and opens the next numbered one.
// Runs on the flusher goroutine only.
func (s *Store) rotate() {
	s.mu.Lock()
	id := s.active.id + 1
	s.mu.Unlock()
	seg, err := s.createSegment(id)
	if err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	s.segs[id] = seg
	s.active = seg
	mSegments.Set(int64(len(s.segs)))
	s.mu.Unlock()
}

// maybeCompact triggers compaction when the superseded fraction of
// sealed records crosses the configured threshold.
func (s *Store) maybeCompact() {
	s.mu.Lock()
	var total, dead int
	for _, seg := range s.segs {
		if seg == s.active {
			continue
		}
		total += seg.total
		dead += seg.total - seg.live
	}
	frac := s.opts.CompactFraction
	s.mu.Unlock()
	if frac >= 1 || total == 0 || dead < s.opts.CompactMinDead {
		return
	}
	if float64(dead)/float64(total) < frac {
		return
	}
	_ = s.Compact()
}

const compactSuffix = ".compact"

// Compact rewrites the live records of every sealed segment into one
// new segment and deletes the originals, reclaiming the space of
// superseded records. The active segment is untouched, so writes and
// reads proceed concurrently; the commit point is an atomic rename.
//
// Crash safety: the compacted file is built under a temporary name and
// renamed over the highest-numbered sealed segment after an fsync. A
// crash before the rename leaves the originals; a crash after it leaves
// the compacted segment (which replays after any older original that
// was not yet deleted, superseding it), so every interleaving replays
// to the same live values.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	sealedIDs := make([]int, 0, len(s.segs))
	for id, seg := range s.segs {
		if seg != s.active {
			sealedIDs = append(sealedIDs, id)
		}
	}
	sort.Ints(sealedIDs)
	if len(sealedIDs) == 0 {
		s.mu.Unlock()
		return nil
	}
	sealedSet := make(map[int]bool, len(sealedIDs))
	for _, id := range sealedIDs {
		sealedSet[id] = true
	}
	type liveRec struct {
		key string
		ref ref
	}
	var live []liveRec
	for k, r := range s.index {
		if sealedSet[r.seg] {
			live = append(live, liveRec{key: k, ref: r})
		}
	}
	// Deterministic output bytes: sort by key.
	sort.Slice(live, func(i, j int) bool { return live[i].key < live[j].key })
	target := sealedIDs[len(sealedIDs)-1]
	files := make(map[int]*os.File, len(sealedIDs))
	for _, id := range sealedIDs {
		files[id] = s.segs[id].f
	}
	s.mu.Unlock()

	// Read every live value and build the compacted segment image.
	buf := encodeHeader()
	type newLoc struct {
		key  string
		old  ref
		off  int64
		vlen int
	}
	locs := make([]newLoc, 0, len(live))
	for _, lr := range live {
		val := make([]byte, lr.ref.vlen)
		if _, err := files[lr.ref.seg].ReadAt(val, lr.ref.off); err != nil {
			return fmt.Errorf("store: compact read: %w", err)
		}
		locs = append(locs, newLoc{key: lr.key, old: lr.ref, off: int64(len(buf)) + int64(valueOffset(lr.key)), vlen: len(val)})
		buf = AppendRecord(buf, lr.key, val)
	}

	tmpPath := s.segPath(target) + compactSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if _, err := tmp.WriteAt(buf, 0); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact: %w", err)
	}
	s.sys(3)
	if err := os.Rename(tmpPath, s.segPath(target)); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact: %w", err)
	}
	s.sys(1)
	s.syncDir()

	newSeg := &segment{id: target, f: tmp, size: int64(len(buf)), total: len(locs), live: len(locs)}

	s.mu.Lock()
	for _, l := range locs {
		cur, ok := s.index[l.key]
		if ok && cur == l.old {
			s.index[l.key] = ref{seg: target, off: l.off, vlen: l.vlen}
		} else {
			// Superseded while compacting: the compacted copy is dead.
			newSeg.live--
		}
	}
	for _, id := range sealedIDs {
		if old := s.segs[id]; old != nil && old.f != nil {
			old.f.Close()
		}
		delete(s.segs, id)
	}
	s.segs[target] = newSeg
	s.compactions++
	mCompactions.Inc()
	mSegments.Set(int64(len(s.segs)))
	s.mu.Unlock()

	for _, id := range sealedIDs {
		if id == target {
			continue
		}
		os.Remove(s.segPath(id))
		s.sys(1)
	}
	s.syncDir()
	return nil
}
