// Package chanflow exercises elsachan: close discipline (single close,
// owner-only close, no send after close), goroutine-leak shapes and
// join discipline.
package chanflow

import "context"

// ---- double close ----

func doubleClose() {
	ch := make(chan int)
	close(ch)
	close(ch) // want "closed more than once"
}

func closeInLoop() {
	ch := make(chan int)
	for i := 0; i < 2; i++ {
		close(ch) // want "close of ch inside a loop"
	}
}

// ---- ownership ----

func closeParam(ch chan int) {
	close(ch) // want "close of channel parameter ch by a non-owner"
}

// closeOwnedParam documents the transfer: the caller hands the close
// over along with the channel.
//
//elsa:chanowner ch
func closeOwnedParam(ch chan int) {
	close(ch)
}

func produceUnannotated() chan int {
	ch := make(chan int, 1)
	go func() {
		defer close(ch) // want "goroutine closes ch it does not own"
		ch <- 1
	}()
	return ch
}

func produceAnnotated() chan int {
	ch := make(chan int, 1)
	//elsa:chanowner ch
	go func() {
		defer close(ch)
		ch <- 1
	}()
	return ch
}

type box struct {
	ch chan int
}

func newBox() *box {
	b := &box{}
	b.ch = make(chan int, 1)
	return b
}

func (b *box) shutdownBad() {
	close(b.ch) // want "close of b.ch outside its creating scope"
}

// shutdown is the annotated owner of the box's channel.
//
//elsa:chanowner b.ch
func (b *box) shutdown() {
	close(b.ch)
}

// ---- send after close ----

func sendAfterClose() {
	ch := make(chan int, 1)
	close(ch)
	ch <- 1 // want "send on ch is reachable after its close at line"
}

func sendAfterCloseBranch(b bool) {
	ch := make(chan int, 1)
	if b {
		close(ch)
	}
	ch <- 1 // want "send on ch is reachable after its close"
}

func deferCloseThenSend() {
	ch := make(chan int, 1)
	defer close(ch)
	ch <- 1 // deferred close runs at exit: no ordering edge
}

func closeThenCloseOther() {
	a := make(chan int, 1)
	b := make(chan int, 1)
	close(a)
	b <- 1 // a's close does not poison b
	close(b)
}

// ---- goroutine leaks ----

func leakySend() {
	ch := make(chan int)
	go func() {
		ch <- 1 // want "blocking send on ch with no guaranteed counterpart"
	}()
}

func leakyRecv() {
	ch := make(chan int)
	go func() {
		<-ch // want "blocking receive from ch with no close, sender"
	}()
}

func pairedSend() int {
	ch := make(chan int)
	go func() { ch <- 1 }()
	return <-ch
}

func bufferedSend() {
	ch := make(chan int, 4)
	go func() { ch <- 1 }()
}

func ctxGuarded(ctx context.Context) {
	ch := make(chan int)
	go func() {
		select {
		case ch <- 1:
		case <-ctx.Done():
		}
	}()
	select {
	case <-ch:
	case <-ctx.Done():
	}
}

func defaultGuarded() {
	ch := make(chan int)
	go func() {
		select {
		case ch <- 1:
		default:
		}
	}()
}

func rangeClosed() {
	ch := make(chan int)
	go func() {
		for range ch {
		}
	}()
	close(ch)
}

// ---- join discipline ----

func uncancellable(ctx context.Context, n *int) {
	go func() { // want "neither a ctx reference nor a WaitGroup join"
		*n++
	}()
}

// uncancellableSuppressed: elsalocksafe, the analyzer the join checks
// came from, is still an accepted suppression name for them.
func uncancellableSuppressed(ctx context.Context, n *int) {
	//nolint:elsalocksafe // fixture: the folded analyzer's name is an alias of elsachan
	go func() {
		*n++
	}()
}
