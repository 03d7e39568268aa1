package fanout

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunEveryIndexOnce: at every worker count, each index runs exactly
// once and a worker id stays below the worker count; n = 0 calls nothing.
func TestRunEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 1000} {
			counts := make([]atomic.Int32, n)
			Run(workers, n, func(w, i int) {
				if w < 0 || w >= max(workers, 1) {
					t.Errorf("workers %d, n %d: worker id %d", workers, n, w)
				}
				counts[i].Add(1)
			})
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers %d, n %d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestRunOneWorkerInline: one worker runs every item on the calling
// goroutine, in order; a panic then propagates as is.
func TestRunOneWorkerInline(t *testing.T) {
	caller := goroutineID()
	var order []int
	Run(1, 5, func(w, i int) {
		if w != 0 || goroutineID() != caller {
			t.Errorf("item %d ran on worker %d off the calling goroutine", i, w)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order %v, want 0..4", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d items, want 5", len(order))
	}
}

// TestRunPanicAfterAllReturn: a worker's panic reaches the caller with its
// value, and only once every other worker, still busy on an item, has
// returned.
func TestRunPanicAfterAllReturn(t *testing.T) {
	var busy sync.WaitGroup
	var running, finished atomic.Int32
	busy.Add(1)
	got := func() (r any) {
		defer func() { r = recover() }()
		Run(4, 4, func(_, i int) {
			if i == 0 {
				busy.Wait() // every slow item has started
				panic("boom")
			}
			if running.Add(1) == 3 {
				busy.Done()
			}
			time.Sleep(20 * time.Millisecond)
			finished.Add(1)
		})
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want boom", got)
	}
	if f := finished.Load(); f != 3 {
		t.Fatalf("Run re-raised with %d of 3 workers finished", f)
	}
}

// goroutineID reads the calling goroutine's id off its stack header
// ("goroutine 18 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	for i := len("goroutine "); i < len(buf); i++ {
		if buf[i] == ' ' {
			return string(buf[:i])
		}
	}
	return string(buf)
}

// TestRunAllocs: a Run over 4 workers allocates the same number of objects
// at 16 items as at 1 024, and at most 3 counting the caller's capturing
// closure — the pool state, the method value the goroutines start from and
// the closure — so a caller's own allocation bound can count on Run's.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const workers, maxAllocs = 4, 3
	sums := make([]int, workers)
	allocs := map[int]uint64{}
	for _, n := range []int{16, 1024} {
		allocs[n] = fewestAllocs(func() {
			Run(workers, n, func(w, i int) { sums[w] += i })
		})
	}
	t.Logf("objects allocated per call: %d at 16 items, %d at 1024", allocs[16], allocs[1024])
	if allocs[16] > maxAllocs || allocs[1024] != allocs[16] {
		t.Fatalf("Run allocates %d objects over 16 items and %d over 1024, want the same and at most %d",
			allocs[16], allocs[1024], maxAllocs)
	}
}

// fewestAllocs returns the fewest heap allocations of one call of f: a
// goroutine descriptor the scheduler could not reuse shows in some calls
// only.
func fewestAllocs(f func()) uint64 {
	for range 16 {
		f()
	}
	fewest := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 32 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}
