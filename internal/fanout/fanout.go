// Package fanout is the training path's one worker pool: it spreads a step's
// independent items (columns, trees, row chunks) over the caller and a few
// goroutines, and carries a worker's panic back to the caller, where the
// training watchdog recovers it.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is how many workers Run should get for n items: GOMAXPROCS, but
// never more than the items and never fewer than one.
func Workers(n int) int {
	return max(min(runtime.GOMAXPROCS(0), n), 1)
}

// Run calls fn(w, i) exactly once for every i in [0, n) and returns when
// every call has. min(workers, n) workers claim the items in turn from one
// counter; worker 0 is the calling goroutine, and with one worker every item
// runs inline, in order. w (0 ≤ w < workers) names the worker: a worker runs
// its items one at a time on one goroutine, so scratch indexed by w needs no
// lock. Each item must write only its own slots.
//
// A panicking fn stops the claiming; Run waits for every worker to return
// and then re-panics with the first panic's value on the caller.
func Run(workers, n int, fn func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next     atomic.Int64
		panicked atomic.Bool
		first    any // written once, by the worker that set panicked
		wg       sync.WaitGroup
	)
	work := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				next.Store(int64(n))
				if panicked.CompareAndSwap(false, true) {
					first = r
				}
			}
		}()
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(w, i)
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() { defer wg.Done(); work(w) }()
	}
	work(0)
	wg.Wait()
	if panicked.Load() {
		panic(first)
	}
}
