// Package fanout is the program's one bounded worker pool: every parallel
// section — a training round's columns, trees and row chunks, a bulk
// append's runs, a restore's series, the paper harness's KPIs — spreads its
// independent items over the caller and a few goroutines through Run, which
// carries a worker's panic back to the caller.
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
//
// A call with several workers allocates the pool's state and the method
// value every goroutine starts from, whatever n and workers are.
func Run(workers, n int, fn func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p := &pool{fn: fn, n: int64(n)}
	p.wg.Add(workers - 1)
	spawned := p.spawned
	for range workers - 1 {
		go spawned()
	}
	p.work(0)
	p.wg.Wait()
	if p.panicked.Load() {
		panic(p.first)
	}
}

// pool is one Run call's shared state.
type pool struct {
	fn       func(w, i int)
	n        int64
	next     atomic.Int64 // the next item to claim
	ids      atomic.Int64 // the last worker id handed to a goroutine
	panicked atomic.Bool
	first    any // written once, by the worker that set panicked
	wg       sync.WaitGroup
}

// spawned is a worker goroutine: it takes the next id after the caller's 0.
func (p *pool) spawned() {
	defer p.wg.Done()
	p.work(int(p.ids.Add(1)))
}

// work claims and runs items until none is left or a worker has panicked.
func (p *pool) work(w int) {
	defer func() {
		if r := recover(); r != nil {
			p.next.Store(p.n)
			if p.panicked.CompareAndSwap(false, true) {
				p.first = r
			}
		}
	}()
	for i := p.next.Add(1) - 1; i < p.n; i = p.next.Add(1) - 1 {
		p.fn(w, int(i))
	}
}
