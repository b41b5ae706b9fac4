package workflow

import (
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
)

// instantRunner submits jobs and "runs" them to completion when told.
type instantRunner struct {
	k       *des.Kernel
	pending []*job.Job
}

func (r *instantRunner) SubmitJob(j *job.Job) {
	j.State = job.StateQueued
	r.pending = append(r.pending, j)
}

// completeNext finishes the oldest pending job after dur and returns it.
func (r *instantRunner) completeNext(w *Instance, state job.State) *job.Job {
	if len(r.pending) == 0 {
		return nil
	}
	j := r.pending[0]
	r.pending = r.pending[1:]
	j.State = state
	w.TaskFinished(j)
	return j
}

// testSyms is the symbol table of every job and instance the package's
// tests build.
var testSyms = job.NewSymbols()

func mkJob(id int64, run des.Time) *job.Job {
	return &job.Job{ID: job.ID(id), Name: testSyms.Intern("t"), User: testSyms.Intern("u"), Project: testSyms.Intern("p"),
		Cores: 8, ReqWalltime: run + 10, RunTime: run}
}

func TestAddTaskValidation(t *testing.T) {
	k := des.New()
	r := &instantRunner{k: k}
	w := NewInstance("wf1", "engine", true, k, testSyms, r)
	if err := w.AddTask("", mkJob(1, 10)); err == nil {
		t.Error("empty name accepted")
	}
	if err := w.AddTask("a", mkJob(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := w.AddTask("a", mkJob(2, 10)); err == nil {
		t.Error("duplicate task accepted")
	}
	if err := w.AddTask("b", mkJob(3, 10), "missing"); err == nil {
		t.Error("unknown dependency accepted")
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w.AddTask("late", mkJob(4, 10)); err == nil {
		t.Error("task added after start")
	}
	if err := w.Start(); err == nil {
		t.Error("double start accepted")
	}
}

func TestEmptyWorkflowCannotStart(t *testing.T) {
	k := des.New()
	w := NewInstance("wf", "e", true, k, testSyms, &instantRunner{k: k})
	if err := w.Start(); err == nil {
		t.Error("empty workflow started")
	}
}

func TestDependencyOrderAndTagging(t *testing.T) {
	k := des.New()
	r := &instantRunner{k: k}
	w := NewInstance("wf1", "pegasus", true, k, testSyms, r)
	a, b, c := mkJob(1, 10), mkJob(2, 10), mkJob(3, 10)
	if err := w.AddTask("a", a); err != nil {
		t.Fatal(err)
	}
	if err := w.AddTask("b", b, "a"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddTask("c", c, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	if len(r.pending) != 1 || r.pending[0] != a {
		t.Fatalf("only the root should be released; pending=%d", len(r.pending))
	}
	if testSyms.Str(a.Attr.WorkflowID) != "wf1" || testSyms.Str(a.Attr.WorkflowEngine) != "pegasus" {
		t.Errorf("tags missing: %+v", a.Attr)
	}
	if a.Truth.Modality != job.SymWorkflow || testSyms.Str(a.Truth.CampaignID) != "wf1" {
		t.Errorf("ground truth missing: %+v", a.Truth)
	}
	r.completeNext(w, job.StateCompleted) // a done → b released
	if len(r.pending) != 1 || r.pending[0] != b {
		t.Fatalf("b should be released next")
	}
	r.completeNext(w, job.StateCompleted) // b done → c released
	if len(r.pending) != 1 || r.pending[0] != c {
		t.Fatalf("c should be released last")
	}
	var completed bool
	w.OnComplete = func(*Instance) { completed = true }
	r.completeNext(w, job.StateCompleted)
	if !completed || w.Completed() != 3 || w.Released() != 3 {
		t.Errorf("completion bookkeeping wrong: done=%v released=%d completed=%d",
			completed, w.Released(), w.Completed())
	}
}

func TestUntaggedWorkflowCarriesNoAttributes(t *testing.T) {
	k := des.New()
	r := &instantRunner{k: k}
	w := NewInstance("wf2", "homegrown", false, k, testSyms, r)
	a := mkJob(1, 10)
	if err := w.AddTask("a", a); err != nil {
		t.Fatal(err)
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	if a.Attr.WorkflowID != job.SymNone || a.Attr.WorkflowEngine != job.SymNone {
		t.Errorf("untagged workflow leaked attributes: %+v", a.Attr)
	}
	// Ground truth is always present regardless of tagging.
	if a.Truth.Modality != job.SymWorkflow {
		t.Error("ground truth missing on untagged workflow")
	}
}

func TestFailureAborts(t *testing.T) {
	k := des.New()
	r := &instantRunner{k: k}
	w := NewInstance("wf3", "e", true, k, testSyms, r)
	a, b := mkJob(1, 10), mkJob(2, 10)
	if err := w.AddTask("a", a); err != nil {
		t.Fatal(err)
	}
	if err := w.AddTask("b", b, "a"); err != nil {
		t.Fatal(err)
	}
	var completed bool
	w.OnComplete = func(*Instance) { completed = true }
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	r.completeNext(w, job.StateKilled) // a killed at walltime
	if len(r.pending) != 0 {
		t.Error("successor released after failure")
	}
	if !completed {
		t.Error("aborted workflow did not signal completion")
	}
}

func TestFanOutFanIn(t *testing.T) {
	k := des.New()
	r := &instantRunner{k: k}
	setup := mkJob(1, 5)
	workers := []*job.Job{mkJob(2, 20), mkJob(3, 30), mkJob(4, 10)}
	merge := mkJob(5, 5)
	w, err := FanOutFanIn("wf4", "e", true, k, testSyms, r, setup, workers, merge)
	if err != nil {
		t.Fatal(err)
	}
	if w.Tasks() != 5 {
		t.Errorf("Tasks = %d, want 5", w.Tasks())
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	r.completeNext(w, job.StateCompleted) // setup
	if len(r.pending) != 3 {
		t.Fatalf("fan-out released %d, want 3", len(r.pending))
	}
	for i := 0; i < 3; i++ {
		r.completeNext(w, job.StateCompleted)
	}
	if len(r.pending) != 1 || r.pending[0] != merge {
		t.Fatal("merge not released after all workers")
	}
	r.completeNext(w, job.StateCompleted)
	if w.Completed() != 5 {
		t.Errorf("Completed = %d, want 5", w.Completed())
	}
	// Critical path: setup(5) + slowest worker(30) + merge(5) = 40.
	if got := w.CriticalPathLength(); got != 40 {
		t.Errorf("CriticalPathLength = %v, want 40", got)
	}
}

func TestChain(t *testing.T) {
	k := des.New()
	r := &instantRunner{k: k}
	jobs := []*job.Job{mkJob(1, 10), mkJob(2, 20), mkJob(3, 30)}
	w, err := Chain("wf5", "e", true, k, testSyms, r, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if len(r.pending) != 1 {
			t.Fatalf("chain stage %d: %d pending, want 1", i, len(r.pending))
		}
		r.completeNext(w, job.StateCompleted)
	}
	if got := w.CriticalPathLength(); got != 60 {
		t.Errorf("chain critical path = %v, want 60", got)
	}
}

func TestMakespan(t *testing.T) {
	k := des.New()
	r := &instantRunner{k: k}
	w, err := Chain("wf6", "e", true, k, testSyms, r, []*job.Job{mkJob(1, 10)})
	if err != nil {
		t.Fatal(err)
	}
	k.Schedule(100, func(*des.Kernel) {
		if err := w.Start(); err != nil {
			t.Error(err)
		}
	})
	k.Schedule(250, func(*des.Kernel) { r.completeNext(w, job.StateCompleted) })
	k.Run()
	if got := w.Makespan(); got != 150 {
		t.Errorf("Makespan = %v, want 150", got)
	}
}

func TestTaskFinishedUnknownJobIgnored(t *testing.T) {
	k := des.New()
	r := &instantRunner{k: k}
	w, err := Chain("wf7", "e", true, k, testSyms, r, []*job.Job{mkJob(1, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	w.TaskFinished(mkJob(99, 1)) // not part of the workflow
	if w.Completed() != 0 {
		t.Error("unknown job counted as completed task")
	}
	// Double-finish of the same task is also ignored.
	j := r.completeNext(w, job.StateCompleted)
	w.TaskFinished(j)
	if w.Completed() != 1 {
		t.Errorf("Completed = %d after double finish, want 1", w.Completed())
	}
}
