// Package locksafe seeds copied locks, in-goroutine WaitGroup.Add and
// leakable goroutines — the three concurrency mistakes copylocks and
// elsachan exist to catch before the race detector has to.
package locksafe

import (
	"context"
	"sync"
)

type guarded struct {
	mu    sync.Mutex
	count int
}

func byValueParam(g guarded) int { // want "byValueParam passes lock by value: .*sync.Mutex"
	return g.count
}

func (g guarded) method() int { // want "method passes lock by value: .*sync.Mutex"
	return g.count
}

func (g *guarded) pointerMethod() int { // fine: shared, not copied
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.count
}

func assignmentCopy(g *guarded) {
	snapshot := *g // want "assignment copies lock value to snapshot"
	_ = snapshot.count
}

func rangeCopy(gs []guarded) int {
	total := 0
	for _, g := range gs { // want "range var g copies lock"
		total += g.count
	}
	return total
}

func rangeByIndex(gs []guarded) int {
	total := 0
	for i := range gs {
		total += gs[i].count
	}
	return total
}

func addInsideGoroutine() {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1) // want "WaitGroup.Add inside the goroutine it guards"
		defer wg.Done()
	}()
	wg.Wait()
}

func addBeforeGoroutine() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}

func ownWaitGroupInside() {
	go func() {
		var inner sync.WaitGroup
		inner.Add(1) // fine: inner is owned by this goroutine
		go func() { inner.Done() }()
		inner.Wait()
	}()
}

func leakyInCancellable(ctx context.Context, ch chan int) {
	go func() { // want "neither a ctx reference nor a WaitGroup join"
		for {
			select {
			case v, ok := <-ch: // want "blocking receive from ch with no close, sender"
				if !ok {
					return
				}
				_ = v
			}
		}
	}()
}

func joinedInCancellable(ctx context.Context) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}

func cancellableGoroutine(ctx context.Context, ch chan int) {
	go func() {
		select {
		case ch <- 1:
		case <-ctx.Done():
		}
	}()
}
