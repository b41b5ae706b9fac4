package job

import (
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/des"
)

func valid() *Job {
	syms := NewSymbols()
	return &Job{
		ID: 1, Name: syms.Intern("run.sh"), User: syms.Intern("alice"), Project: syms.Intern("TG-MCA001"),
		Cores: 64, ReqWalltime: 4 * des.Hour, RunTime: 3 * des.Hour,
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{
		StatePending:   "pending",
		StateQueued:    "queued",
		StateRunning:   "running",
		StateCompleted: "completed",
		StateKilled:    "killed",
		StatePreempted: "preempted",
		StateFailed:    "failed",
		State(99):      "state(99)",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestStateTerminal(t *testing.T) {
	terminal := map[State]bool{
		StatePending: false, StateQueued: false, StateRunning: false,
		StateCompleted: true, StateKilled: true, StatePreempted: false,
		StateFailed: true,
	}
	for s, want := range terminal {
		if got := s.Terminal(); got != want {
			t.Errorf("State %v Terminal() = %v, want %v", s, got, want)
		}
	}
}

func TestQOSString(t *testing.T) {
	if QOSNormal.String() != "normal" || QOSUrgent.String() != "urgent" ||
		QOSInteractive.String() != "interactive" || QOS(9).String() != "qos(9)" {
		t.Error("QOS string names wrong")
	}
}

func TestTimings(t *testing.T) {
	j := valid()
	j.SubmitTime = 100
	j.StartTime = 400
	j.EndTime = 1000
	if got := j.WaitTime(); got != 300 {
		t.Errorf("WaitTime = %v, want 300", got)
	}
	if got := j.Elapsed(); got != 600 {
		t.Errorf("Elapsed = %v, want 600", got)
	}
	if got := j.CoreSeconds(); got != 600*64 {
		t.Errorf("CoreSeconds = %v, want %v", got, 600*64)
	}
}

func TestTimingsBeforeStart(t *testing.T) {
	j := valid()
	j.SubmitTime = 100
	if j.WaitTime() != 0 || j.Elapsed() != 0 || j.CoreSeconds() != 0 {
		t.Error("unstarted job should report zero wait/elapsed/core-seconds")
	}
}

func TestBoundedSlowdown(t *testing.T) {
	j := valid()
	j.SubmitTime = 0
	j.StartTime = 100
	j.EndTime = 200 // run=100, wait=100 → slowdown 2
	if got := j.BoundedSlowdown(); got != 2 {
		t.Errorf("BoundedSlowdown = %v, want 2", got)
	}
	// Very short job: bound kicks in. run=1, wait=99 → (99+1)/10 = 10
	j.StartTime = 99
	j.EndTime = 100
	if got := j.BoundedSlowdown(); got != 10 {
		t.Errorf("BoundedSlowdown short job = %v, want 10", got)
	}
	// No wait, long run → exactly 1.
	j.SubmitTime = 0
	j.StartTime = 0
	j.EndTime = 1000
	if got := j.BoundedSlowdown(); got != 1 {
		t.Errorf("BoundedSlowdown no-wait = %v, want 1", got)
	}
}

func TestValidate(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	cases := []struct {
		mutate func(*Job)
		want   string
	}{
		{func(j *Job) { j.Cores = 0 }, "cores"},
		{func(j *Job) { j.ReqWalltime = 0 }, "walltime"},
		{func(j *Job) { j.RunTime = 0 }, "runtime"},
		{func(j *Job) { j.User = SymNone }, "user"},
		{func(j *Job) { j.Project = SymNone }, "project"},
		{func(j *Job) { j.QOS = QOSInteractive + 1 }, "qos(3)"},
	}
	for _, c := range cases {
		j := valid()
		c.mutate(j)
		err := j.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("expected %q error, got %v", c.want, err)
		}
	}
}

func TestAllModalitiesDistinct(t *testing.T) {
	seen := map[Modality]bool{}
	for _, m := range AllModalities {
		if seen[m] {
			t.Errorf("duplicate modality %q", m)
		}
		seen[m] = true
	}
	if len(AllModalities) != 9 {
		t.Errorf("taxonomy has %d modalities, want 9", len(AllModalities))
	}
}
