package main

import (
	"os"
	"testing"
)

// TestRejectsBadArguments: an unknown flag, including the removed
// -stream-buf, and a stray positional argument outside -merge are usage
// errors (exit 2) raised before the daemon listens on anything.
func TestRejectsBadArguments(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = null
	t.Cleanup(func() {
		os.Stderr = stderr
		null.Close()
	})
	for _, args := range [][]string{
		{"-stream-buf", "10"},
		{"stray"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
