// Package deadcode is the deadcode analyzer's corpus. Its import path has
// an internal element, so only its init function and its _ declarations
// are roots.
package deadcode

import "fmt"

func init() {
	fmt.Println(live())
}

// live is reached from init.
func live() any { return stringer{} }

// stringer is live through live. No code names its String method, but
// fmt.Stringer's method set does, and fmt reaches it through the any.
type stringer struct{}

func (stringer) String() string { return "stringer" }

// unnamed is a method of a live type that no interface names.
func (stringer) unnamed() {} // want `^deadcode: stringer\.unnamed is unreachable`

// Exported is exported, but nothing reaches it.
func Exported() int { return helper() } // want `^deadcode: Exported is unreachable`

// helper is orphaned by Exported.
func helper() int { return 1 } // want `^deadcode: helper is unreachable`

// ping and pong call each other, and nothing else calls either.
func ping(n int) int { // want `^deadcode: ping is unreachable`
	if n == 0 {
		return 0
	}
	return pong(n - 1)
}

func pong(n int) int { return ping(n) } // want `^deadcode: pong is unreachable`

// countdown's only caller is itself.
func countdown(n int) int { // want `^deadcode: countdown is unreachable`
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// testOnly is called from deadcode_test.go only.
func testOnly() int { return 2 } // want `^deadcode: testOnly is unreachable`

// Every kind of package-level declaration is judged.
const deadConst = 3 // want `^deadcode: deadConst is unreachable`

var deadVar = deadConst // want `^deadcode: deadVar is unreachable`

type deadType int // want `^deadcode: deadType is unreachable`

// kept is unreachable, and a reasoned directive keeps it.
//
//qlint:ignore deadcode fixture: a declaration kept on purpose
func kept() {}

// revived is reached from the _ below, so the directive above it has
// nothing left to suppress: -strict-ignores reports it.
//
//qlint:ignore deadcode fixture: the declaration this covered is live again
func revived() {}

var _ = revived
