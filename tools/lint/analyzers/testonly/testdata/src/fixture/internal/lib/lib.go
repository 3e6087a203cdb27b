// Package lib is the testonly fixture's library: cmd/app is its only
// non-test caller, lib_test.go its test.
package lib // want `stale allowlist entry fixture/internal/lib.Gone: no such declaration`

import "fmt"

// Used is called from cmd/app, and allowlisted anyway.
func Used() fmt.Stringer { // want `stale allowlist entry fixture/internal/lib.Used: non-test code references it now`
	if err := check(); err != nil {
		return Named{err.Error()}
	}
	return Named{"ok"}
}

// TestOnly is called only from lib_test.go.
func TestOnly() {} // want `no non-test file references lib.TestOnly`

// Recur only calls itself.
func Recur(n int) int { // want `no non-test file references lib.Recur`
	if n == 0 {
		return 0
	}
	return Recur(n - 1)
}

// Allowed is called only from lib_test.go, with an allowlist entry.
func Allowed() {}

// TestConst and TestType are used only by lib_test.go.
const TestConst = 1 // want `no non-test file references lib.TestConst`

type TestType struct{} // want `no non-test file references lib.TestType`

// Named reaches cmd/app as a fmt.Stringer.
type Named struct{ name string }

func (n Named) String() string { return n.name }

// Dead is a method no interface asks for.
func (n Named) Dead() {} // want `no non-test file references lib.Named.Dead`

// Err is an error type; errors.Unwrap reaches Unwrap.
type Err struct{ cause error }

func (e *Err) Error() string { return "lib: " + e.cause.Error() }

func (e *Err) Unwrap() error { return e.cause }

func check() error {
	var err *Err
	if err != nil {
		return err
	}
	return nil
}
