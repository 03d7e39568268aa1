package fanout

import (
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
