package main

import (
	"errors"
	"fmt"
	"testing"
)

// TestExitCode pins the unified exit-code mapping documented in the
// README: tagged errors carry their code, untagged errors are runtime
// failures, nil is success.
func TestExitCode(t *testing.T) {
	plain := errors.New("boom")
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, exitOK},
		{"plain error", plain, exitErr},
		{"obs loss", withCode(exitObsLoss, plain), exitObsLoss},
		{"fleet partial", withCode(exitFleetPartial, plain), exitFleetPartial},
		{"wrapped tag survives", fmt.Errorf("context: %w", withCode(exitObsLoss, plain)), exitObsLoss},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("%s: exitCode = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestWithCodePreservesChain ensures tagging does not hide the underlying
// error from errors.Is.
func TestWithCodePreservesChain(t *testing.T) {
	base := errors.New("span buffer overflow")
	tagged := withCode(exitObsLoss, fmt.Errorf("-strict-obs: %w", base))
	if !errors.Is(tagged, base) {
		t.Fatal("withCode broke the error chain")
	}
	if withCode(exitObsLoss, nil) != nil {
		t.Fatal("withCode(nil) must stay nil")
	}
}
