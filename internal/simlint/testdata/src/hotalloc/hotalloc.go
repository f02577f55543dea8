// Fixture for the hotalloc analyzer: //simlint:hotpath functions may not
// allocate. Each bad* function pins one allocating construct; the good*
// functions pin the sanctioned idioms (field self-append, capture-free
// literals, constant folding, panic cold paths).
package hotalloc

import (
	"fmt"
	"strings"
)

type ring struct {
	buf []int
}

// Self-append into a struct field reuses the arena's capacity and passes.
//
//simlint:hotpath
func (r *ring) push(v int) {
	r.buf = append(r.buf, v)
}

//simlint:hotpath
func badMake(n int) {
	_ = make([]int, n) // want "make allocates on the hot path"
}

//simlint:hotpath
func badNew() *int {
	return new(int) // want "new allocates on the hot path"
}

//simlint:hotpath
func badAppend(dst, extra []int) []int {
	out := append(dst, extra...) // want "append result does not feed back"
	return out
}

// Self-append into a function-local slice grows a fresh backing array every
// call: a warning, not an error (the AllocsPerRun budget is authoritative).
//
//simlint:hotpath
func warnLocalSelfAppend(n int) int {
	var local []int
	for i := 0; i < n; i++ {
		local = append(local, i) // want "self-append into function-local slice local"
	}
	return len(local)
}

//simlint:hotpath
func badFmt(v int) string {
	return fmt.Sprintf("v=%d", v) // want "fmt.Sprintf boxes its operands"
}

//simlint:hotpath
func badFields(s string) int {
	return len(strings.Fields(s)) // want "strings.Fields builds a fresh slice per call"
}

// Scanning in place allocates nothing and passes.
//
//simlint:hotpath
func goodIndex(s string) int {
	return strings.IndexByte(s, ' ')
}

//simlint:hotpath
func badEscape() *ring {
	return &ring{} // want "composite literal escapes to the heap"
}

//simlint:hotpath
func badSliceLit() int {
	xs := []int{1, 2, 3} // want "slice/map literal allocates its backing store"
	return xs[0]
}

//simlint:hotpath
func badConcat(a, b string) string {
	return a + b // want "string concatenation allocates"
}

// Constant concatenation folds at compile time and passes.
//
//simlint:hotpath
func goodConstConcat() string {
	return "a" + "b"
}

//simlint:hotpath
func badClosure(n int) func() int {
	return func() int { return n } // want "captures n and allocates a closure"
}

// A capture-free literal compiles to a static function and passes.
//
//simlint:hotpath
func goodFreeLit() func(int) int {
	return func(x int) int { return 2 * x }
}

//simlint:hotpath
func badLoopDefer(fns []func()) {
	for _, f := range fns {
		defer f() // want "defer inside a loop"
	}
}

// A function-level defer allocates nothing extra and passes.
//
//simlint:hotpath
func goodDefer(f func()) {
	defer f()
}

// Panic arguments are cold paths: rich messages may allocate freely.
//
//simlint:hotpath
func goodPanic(v int) int {
	if v < 0 {
		panic(fmt.Sprintf("negative %d", v))
	}
	return v
}

// An annotated freelist-miss branch is the sanctioned escape hatch.
//
//simlint:hotpath
func allowMiss() *ring {
	return &ring{} //simlint:allow hotalloc fixture: freelist miss pins the allow path
}

// A marker that attaches to no function declaration is itself a diagnostic.
//
// want+2 "attaches to no function declaration"
//
//simlint:hotpath
var sink int
