// Package alloc seeds the elsaalloc fixture: allocation sites in
// //elsa:hotpath kernels that the flow layer must prove
// stack-allocatable (non-escaping, constant size) or flag with their
// escape path.
package alloc

type scratch struct {
	buf []int
	out []*scratch
}

var global []int

// provenLocal is the payoff case: constant-size make, slice literal,
// &composite and a closure, none escaping — the compiler stack-
// allocates all of them, and the proof layer stays silent where the
// old syntactic ban fired four times.
//
//elsa:hotpath
func provenLocal(n int) int {
	tmp := make([]int, 16)
	ws := []int{1, 2, 4}
	p := &scratch{}
	f := func(i int) int { return tmp[i&15] + ws[i%3] }
	sum := len(p.buf)
	for i := 0; i < n; i++ {
		sum += f(i)
	}
	return sum
}

//elsa:hotpath
func escapesByReturn() []int {
	xs := make([]int, 4) // want "escapes .*returned"
	return xs
}

//elsa:hotpath
func escapesToGlobal() {
	global = make([]int, 4) // want "escapes .stored to package-level global"
}

//elsa:hotpath
func escapesThroughField(s *scratch) {
	s.out = append(s.out, &scratch{}) // want "&composite literal escapes" "append may grow and allocate"
}

//elsa:hotpath
func nonConstSize(n int) int {
	xs := make([]int, n) // want "non-constant size"
	return xs[0]
}

//elsa:hotpath
func tooBig() int {
	var big [9000]int64
	xs := big[:]
	ys := make([]int64, 9000) // want "past the 65536-byte stack-allocation bound"
	return int(xs[0] + ys[0])
}

//elsa:hotpath
func mapAlloc() int {
	m := map[int]int{1: 2} // want "not provably allocation-free"
	return m[1]
}

//elsa:hotpath
func chanAlloc() chan int {
	return make(chan int) // want "make.chan. in a hotpath kernel allocates"
}

func retain(f func() int) func() int { return f }

//elsa:hotpath
func escapingClosure(base int) func() int {
	k := base
	g := func() int { return k } // want "closure escapes .*passed to retain.*captures k by reference"
	return retain(g)
}

// indirection: the escape is two hops away — the make flows through a
// local, into a local struct, and out through the return.
//
//elsa:hotpath
func escapesIndirectly() *scratch {
	tmp := make([]int, 8) // want "escapes"
	var s scratch
	s.buf = tmp
	return &s // want "&s escapes .returned.*moving s to the heap"
}

// the refGate soundness hole: &xs[i] of a []int points into the
// backing array even though an int element carries no references, so
// the make must escape with the pointer.
//
//elsa:hotpath
func escapesByElemAddr() *int {
	xs := make([]int, 4) // want "escapes .*returned"
	return &xs[0]
}

// same hole through a selector + index chain.
//
//elsa:hotpath
func escapesByFieldElemAddr() *int {
	s := scratch{buf: make([]int, 2)} // want "escapes .*returned"
	return &s.buf[0]
}

type pair struct{ a, b int }

// no allocation site at all: the address of a plain local escapes, so
// the compiler moves the variable itself to the heap.
//
//elsa:hotpath
func heapMovedByFieldAddr() *int {
	var p pair
	return &p.a // want "&p.a escapes .returned at line.*moving p to the heap"
}

// addresses that never leave the frame prove out clean.
//
//elsa:hotpath
func addrStaysLocal() int {
	xs := make([]int, 4)
	var p pair
	q, r := &xs[0], &p.a
	*q, *r = 3, 4
	return xs[0] + p.a
}

// suppressedLegacy: a reasoned //nolint:elsahotpath, the folded
// analyzer's name, still suppresses elsaalloc.
//
//elsa:hotpath
func (s *scratch) suppressedLegacy(n int) {
	s.buf = make([]int, n) //nolint:elsahotpath // amortized: grows once to capacity, reused per call
}

// unannotated functions are out of scope.
func unannotated() []int {
	return make([]int, 3)
}
