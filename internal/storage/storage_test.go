package storage

import (
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/network"
)

func newStager(t *testing.T) (*des.Kernel, *Stager) {
	t.Helper()
	k := des.New()
	tp := network.NewTopology()
	for _, s := range []string{"a", "b"} {
		if err := tp.AddSite(s, 10); err != nil {
			t.Fatal(err)
		}
	}
	tp.SetRTT("a", "b", 0)
	return k, NewStager(k, network.NewFabric(k, tp))
}

func TestStagerMovesAndNotifies(t *testing.T) {
	k, s := newStager(t)
	var seen *network.Transfer
	s.OnTransfer = func(tr *network.Transfer) { seen = tr }
	var done bool
	if err := s.Stage("a", "b", 1_250_000_000, "alice", "p1", 42, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !done || s.Staged() != 1 {
		t.Fatal("stage did not complete")
	}
	if seen == nil || seen.User != "alice" || seen.Project != "p1" || seen.JobID != 42 {
		t.Errorf("transfer metadata wrong: %+v", seen)
	}
}

func TestStagerZeroBytes(t *testing.T) {
	k, s := newStager(t)
	var done bool
	if err := s.Stage("a", "b", 0, "u", "p", 0, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !done {
		t.Error("zero-byte stage did not call done")
	}
	if s.Staged() != 0 {
		t.Error("zero-byte stage should not count as a transfer")
	}
}

func TestStagerError(t *testing.T) {
	_, s := newStager(t)
	if err := s.Stage("nowhere", "b", 10, "u", "p", 0, nil); err == nil {
		t.Error("stage from unknown site accepted")
	}
}
