package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/savat"
	"repro/internal/store"
)

// smokeSpec is a tiny campaign for service tests: 2×2 events, 2
// repetitions, sixteenth-second captures.
func smokeSpec() savat.CampaignSpec {
	spec := savat.DefaultCampaignSpec()
	spec.Config = savat.FastConfig()
	spec.Config.Duration = 1.0 / 16
	spec.Events = []savat.Event{savat.ADD, savat.LDM}
	spec.Repeats = 2
	spec.Seed = 3
	return spec
}

// lastColdSeed numbers the seeds coldSeed hands out.
var lastColdSeed atomic.Int64

// coldSeed returns a campaign seed no earlier campaign in the test
// process used. Synthesis products are shared process-wide, so a
// campaign that must stay busy — to be cancelled mid-run, or to hold
// the only slot — needs products that are not already resident (under
// -count too): with them resident every cell only renders, and the
// campaign can finish before the test acts.
func coldSeed() int64 { return 1000 + lastColdSeed.Add(1) }

// holdSlot takes one run slot from the scheduler until release is
// called, so jobs submitted meanwhile queue instead of starting. With
// warm synthesis products a smoke campaign finishes in about a
// millisecond, so a scheduling test that submits several jobs could
// otherwise see the first finish, and hand its slot on, before it has
// submitted the rest.
func holdSlot(s *Server) (release func()) {
	s.mu.Lock()
	s.active++
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.active--
		s.scheduleLocked()
		s.mu.Unlock()
	}
}

func newServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	})
	return s
}

func awaitDone(t *testing.T, s *Server, id string) Job {
	t.Helper()
	done, err := s.Done(id)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish", id)
	}
	jb, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return jb
}

func TestJobLifecycle(t *testing.T) {
	s := newServer(t, Options{})
	spec := smokeSpec()

	jb, err := s.Submit(spec, SubmitOptions{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if jb.ID == "" || jb.Fingerprint == "" {
		t.Fatalf("submission snapshot incomplete: %+v", jb)
	}

	events, stop, err := s.Subscribe(jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	final := awaitDone(t, s, jb.ID)
	if final.State != StateDone {
		t.Fatalf("state %s, error %q", final.State, final.Error)
	}
	total := 2 * 2 * spec.Repeats
	if final.Stats.Done != total {
		t.Errorf("stats done %d, want %d", final.Stats.Done, total)
	}

	// The subscription carries every cell exactly once, then closes.
	got := 0
	for range events {
		got++
	}
	if got != total {
		t.Errorf("streamed %d events, want %d", got, total)
	}

	// The result matches a direct run of the same spec bit-for-bit.
	res, err := s.Result(jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := savat.RunSpecContext(context.Background(), spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(res.Cells)
	b, _ := json.Marshal(direct.Cells)
	if string(a) != string(b) {
		t.Errorf("service result diverges from direct run:\n%s\nvs\n%s", a, b)
	}

	// A late subscriber still sees the full history.
	replay, stop2, err := s.Subscribe(jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	got = 0
	for range replay {
		got++
	}
	if got != total {
		t.Errorf("replayed %d events, want %d", got, total)
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	s := newServer(t, Options{})
	spec := smokeSpec()
	spec.Machine = "Cray1"
	if _, err := s.Submit(spec, SubmitOptions{}); !errors.Is(err, savat.ErrUnknownMachine) {
		t.Errorf("err = %v, want ErrUnknownMachine", err)
	}
	if _, err := s.Get("c999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestResultBeforeDone(t *testing.T) {
	s := newServer(t, Options{MaxActive: 1})
	// Two jobs: the second is queued while the first runs, so its
	// result is queryable-but-absent. Otherwise both could finish
	// before the query.
	first, err := s.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	release := holdSlot(s)
	spec := smokeSpec()
	spec.Seed = 4
	second, err := s.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Result(second.ID); !errors.Is(err, ErrNotDone) {
		t.Errorf("err = %v, want ErrNotDone", err)
	}
	release()
	awaitDone(t, s, first.ID)
	awaitDone(t, s, second.ID)
}

// Cancelling a running job keeps its finished cells in the server's
// result cache, and resubmitting the same spec resumes from them — with
// a state directory (durable store) and without one (memory only) alike.
// The resumed job serves exactly the cancelled job's finished cells from
// the cache, computes the rest, and its matrix is bit-identical to a
// direct run.
func TestCancelAndResume(t *testing.T) {
	for _, tc := range []struct {
		name     string
		stateDir string
	}{
		{"state-dir", t.TempDir()},
		{"memory-only", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testCancelAndResume(t, Options{StateDir: tc.stateDir, MaxActive: 1, Parallelism: 1})
		})
	}
}

func testCancelAndResume(t *testing.T, opts Options) {
	s := newServer(t, opts)
	spec := smokeSpec()
	// Quarter-second captures and 18 serial cells computing their
	// products cold: slow enough that the cancel below always lands
	// mid-run, never after the last cell.
	spec.Config.Duration = 0.25
	spec.Events = []savat.Event{savat.ADD, savat.LDM, savat.DIV}
	spec.Repeats = 2 // 18 cells
	spec.Seed = coldSeed()

	jb, err := s.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Let a few cells finish, then cancel mid-run.
	events, stop, err := s.Subscribe(jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for range events {
		seen++
		if seen == 2 {
			break
		}
	}
	stop()
	if _, err := s.Cancel(jb.ID); err != nil {
		t.Fatal(err)
	}
	cancelled := awaitDone(t, s, jb.ID)
	if cancelled.State != StateCancelled {
		t.Fatalf("state %s after cancel", cancelled.State)
	}

	// Cancel on a terminal job is a no-op.
	again, err := s.Cancel(jb.ID)
	if err != nil || again.State != StateCancelled {
		t.Fatalf("idempotent cancel: %+v, %v", again, err)
	}

	// Resubmit the identical spec: its cell keys match, so the shared
	// cache serves the finished cells.
	resumed, err := s.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Fingerprint != jb.Fingerprint {
		t.Fatalf("same spec, different fingerprints: %s vs %s", resumed.Fingerprint, jb.Fingerprint)
	}
	final := awaitDone(t, s, resumed.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job state %s, error %q", final.State, final.Error)
	}
	total := 3 * 3 * spec.Repeats
	if final.Stats.Done != total {
		t.Errorf("resumed done %d, want %d", final.Stats.Done, total)
	}
	if final.Stats.Cached == 0 || final.Stats.Cached != cancelled.Stats.Done {
		t.Errorf("resume served %d cells from the cache, cancelled job finished %d",
			final.Stats.Cached, cancelled.Stats.Done)
	}

	res, err := s.Result(resumed.ID)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := savat.RunSpecContext(context.Background(), spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(res.Cells)
	b, _ := json.Marshal(direct.Cells)
	if string(a) != string(b) {
		t.Errorf("resumed result diverges from direct run")
	}
}

// A queued job cancelled before its slot never starts, and the
// scheduler grants slots fairly: with one slot and tenants A (two
// queued jobs) and B (one), B's job runs before A's second.
func TestSchedulerFairness(t *testing.T) {
	s := newServer(t, Options{MaxActive: 1})

	specN := func(seed int64) savat.CampaignSpec {
		sp := smokeSpec()
		sp.Seed = seed
		return sp
	}
	// All three jobs queue before any runs; otherwise a1 could finish
	// before b1 is submitted, and a2 would rightly take the slot.
	release := holdSlot(s)
	a1, err := s.Submit(specN(10), SubmitOptions{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Submit(specN(11), SubmitOptions{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := s.Submit(specN(12), SubmitOptions{Tenant: "b"})
	if err != nil {
		t.Fatal(err)
	}
	release()

	awaitDone(t, s, a1.ID)
	awaitDone(t, s, a2.ID)
	awaitDone(t, s, b1.ID)

	ja, _ := s.Get(a2.ID)
	jb, _ := s.Get(b1.ID)
	if !jb.Started.Before(ja.Started) {
		t.Errorf("fairness: b's first job (started %v) should precede a's second (started %v)",
			jb.Started, ja.Started)
	}
}

// Higher priority wins within one tenant.
func TestSchedulerPriority(t *testing.T) {
	s := newServer(t, Options{MaxActive: 1})
	specN := func(seed int64) savat.CampaignSpec {
		sp := smokeSpec()
		sp.Seed = seed
		return sp
	}
	// First job occupies the slot; the queue then holds low before high.
	// Otherwise first could finish before high is submitted, and low
	// would rightly take the slot.
	first, err := s.Submit(specN(20), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	release := holdSlot(s)
	low, err := s.Submit(specN(21), SubmitOptions{Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	high, err := s.Submit(specN(22), SubmitOptions{Priority: 9})
	if err != nil {
		t.Fatal(err)
	}
	release()
	awaitDone(t, s, first.ID)
	awaitDone(t, s, low.ID)
	awaitDone(t, s, high.ID)

	jl, _ := s.Get(low.ID)
	jh, _ := s.Get(high.ID)
	if !jh.Started.Before(jl.Started) {
		t.Errorf("priority: high (started %v) should precede low (started %v)", jh.Started, jl.Started)
	}
}

func TestClosedServerRejectsSubmit(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Submit(smokeSpec(), SubmitOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

// Two servers on one state directory would serve each other's cells
// out of one interleaved segment log; the second is refused until the
// first closes.
func TestNewRefusesHeldStateDir(t *testing.T) {
	dir := t.TempDir()
	first, err := New(Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if s, err := New(Options{StateDir: dir}); !errors.Is(err, store.ErrLocked) {
		if err == nil {
			s.Close()
		}
		first.Close()
		t.Fatalf("second New on one state dir: %v, want store.ErrLocked", err)
	}
	first.Close()
	newServer(t, Options{StateDir: dir})
}

// A slot grant costs the same however many jobs have run: with 10,000
// finished jobs behind it, a pick scans only the queue, allocates
// nothing, and still ranks by the tenants' granted slots.
func TestPickIgnoresFinishedJobs(t *testing.T) {
	s := newServer(t, Options{MaxActive: 1})
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range 10_000 {
		j := &job{id: fmt.Sprintf("f%d", i), tenant: "a", seq: i, state: StateDone}
		s.jobs[j.id], s.order = j, append(s.order, j)
		s.granted[j.tenant]++
	}
	a := &job{id: "qa", tenant: "a", seq: 10_000, priority: 9, state: StateQueued}
	b := &job{id: "qb", tenant: "b", seq: 10_001, state: StateQueued}
	gone := &job{id: "qc", tenant: "c", seq: 10_002, state: StateCancelled}
	s.queued = append(s.queued, a, gone, b)
	if got := s.pickLocked(); got != b {
		t.Fatalf("picked %v, want tenant b's job (a holds 10000 slots)", got.id)
	}
	if len(s.queued) != 2 {
		t.Errorf("queue holds %d jobs after the pick, want the 2 still queued", len(s.queued))
	}
	if n := testing.AllocsPerRun(100, func() { s.pickLocked() }); n != 0 {
		t.Errorf("a pick allocates %v times", n)
	}
}
