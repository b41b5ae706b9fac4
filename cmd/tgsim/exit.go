package main

import "errors"

// Exit codes, unified across tgsim and tgdiff (documented in README):
//
//	0  success (tgdiff: no differences)
//	1  difference found (tgdiff regressions; replay-equivalence mismatch)
//	2  usage, load, or runtime error
//	3  observability loss under -strict-obs (span-buffer drop or a
//	   lossy/broken -push)
//	4  fleet partial failure (one or more replications errored)
//
// tgsim itself never exits 1: byte-equivalence is always checked by an
// external comparator (tgdiff or cmp), which owns that code.
const (
	exitOK           = 0
	exitDiff         = 1
	exitErr          = 2
	exitObsLoss      = 3
	exitFleetPartial = 4
)

// codedError tags an error with its process exit code while leaving the
// underlying error chain intact for errors.Is matching.
type codedError struct {
	code int
	err  error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

// withCode tags err with an exit code (nil stays nil).
func withCode(code int, err error) error {
	if err == nil {
		return nil
	}
	return &codedError{code: code, err: err}
}

// exitCode maps an error to the process exit code: nil is success, a
// tagged error carries its own code, anything else is a runtime error.
func exitCode(err error) int {
	if err == nil {
		return exitOK
	}
	var ce *codedError
	if errors.As(err, &ce) {
		return ce.code
	}
	return exitErr
}
