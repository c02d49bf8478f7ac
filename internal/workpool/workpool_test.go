package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCapacityAccounting(t *testing.T) {
	p := New(2)
	if p.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2", p.Cap())
	}
	if !p.TryAcquire() || !p.TryAcquire() {
		t.Fatal("expected two tokens")
	}
	if p.TryAcquire() {
		t.Fatal("acquired a third token from a 2-token pool")
	}
	p.Release()
	if !p.TryAcquire() {
		t.Fatal("released token not reacquirable")
	}
	p.Release()
	p.Release()
}

func TestZeroCapacityRunsInline(t *testing.T) {
	p := New(0)
	if p.TryAcquire() {
		t.Fatal("zero-capacity pool granted a token")
	}
	ran := false
	if p.Go(func() { ran = true }) {
		t.Fatal("zero-capacity Go claimed to spawn")
	}
	if ran {
		t.Fatal("Go ran f without a token")
	}
}

func TestNegativeCapacityClamped(t *testing.T) {
	if got := New(-3).Cap(); got != 0 {
		t.Fatalf("Cap = %d, want 0", got)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Release()
}

func TestGoRunsAndReleases(t *testing.T) {
	p := New(1)
	var wg sync.WaitGroup
	var ran atomic.Bool
	wg.Add(1)
	if !p.Go(func() { defer wg.Done(); ran.Store(true) }) {
		t.Fatal("Go failed with a free token")
	}
	wg.Wait()
	if !ran.Load() {
		t.Fatal("f did not run")
	}
	// The token must come back after f returns. Go releases it just
	// after f's deferred wg.Done, so yield to that goroutine instead of
	// spinning a fixed number of times (a race-detector build may not
	// have run it yet).
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if p.TryAcquire() {
			p.Release()
			return
		}
	}
	t.Fatal("token not released after Go completed")
}

func TestReserve(t *testing.T) {
	p := New(3)
	held, release := p.Reserve(2)
	if held != 2 {
		t.Fatalf("held = %d, want 2", held)
	}
	if held2, release2 := p.Reserve(5); held2 != 1 {
		t.Fatalf("second reserve held %d, want 1", held2)
	} else {
		release2()
	}
	release()
	release() // idempotent: a double release must not over-fill the pool
	if held3, release3 := p.Reserve(5); held3 != 3 {
		t.Fatalf("after release, reserve held %d, want 3", held3)
	} else {
		release3()
	}
}

// TestConcurrentBound hammers the pool from many goroutines and checks
// the number of simultaneously-held tokens never exceeds capacity.
func TestConcurrentBound(t *testing.T) {
	const capTokens = 4
	p := New(capTokens)
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if p.TryAcquire() {
					n := inFlight.Add(1)
					for {
						old := peak.Load()
						if n <= old || peak.CompareAndSwap(old, n) {
							break
						}
					}
					inFlight.Add(-1)
					p.Release()
				}
			}
		}()
	}
	wg.Wait()
	if peak.Load() > capTokens {
		t.Fatalf("peak concurrent tokens %d exceeds capacity %d", peak.Load(), capTokens)
	}
}
