// Package workflow implements a DAG workflow engine: campaigns of dependent
// tasks released to the grid as their predecessors complete. The engine
// tags each released job with the workflow instance and engine name when
// instrumentation coverage allows, which is the signal the modality
// framework uses to measure workflow usage directly; untagged workflows
// must be inferred.
package workflow

import (
	"fmt"
	"sort"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
)

// Submitter is where released tasks are sent.
type Submitter interface {
	SubmitJob(j *job.Job)
}

// Task is a node in the DAG.
type Task struct {
	Name string
	// Job is the task's job until the job reaches its terminal state.
	// Then the instance lets go of it, since the job's owner may reuse it,
	// and keeps only its runtime.
	Job     *job.Job
	runTime des.Time // Job.RunTime at the terminal state
	deps    []*Task
	// bookkeeping
	remaining int // unfinished dependencies
	released  bool
	done      bool
}

// Instance is one executing workflow.
type Instance struct {
	ID     string
	Engine string
	// TagCoverage: probability-free, deterministic toggle — the scenario
	// layer decides per-instance whether instrumentation tags are applied
	// (modeling engines that do or do not emit workflow attributes).
	Tagged bool

	// id and engine are ID and Engine in the run's symbol table.
	id, engine job.Sym

	k      *des.Kernel
	submit Submitter
	tasks  map[string]*Task
	order  []string // insertion order for deterministic release
	// OnComplete fires when every task has finished.
	OnComplete func(*Instance)

	released  int
	completed int
	startedAt des.Time
	endedAt   des.Time
	running   bool
}

// NewInstance creates an empty workflow instance. syms is the run's symbol
// table; the instance resolves its ID and engine name in it once, and
// stamps them on every task it releases.
func NewInstance(id, engine string, tagged bool, k *des.Kernel, syms *job.Symbols, s Submitter) *Instance {
	return &Instance{
		ID: id, Engine: engine, Tagged: tagged,
		id: syms.Intern(id), engine: syms.Intern(engine),
		k: k, submit: s, tasks: make(map[string]*Task),
	}
}

// AddTask registers a task with dependencies (by task name, which must
// already exist — add tasks in topological order).
func (w *Instance) AddTask(name string, j *job.Job, deps ...string) error {
	if w.running {
		return fmt.Errorf("workflow %s: cannot add tasks after start", w.ID)
	}
	if name == "" {
		return fmt.Errorf("workflow %s: task needs a name", w.ID)
	}
	if _, dup := w.tasks[name]; dup {
		return fmt.Errorf("workflow %s: duplicate task %s", w.ID, name)
	}
	t := &Task{Name: name, Job: j}
	for _, d := range deps {
		dep, ok := w.tasks[d]
		if !ok {
			return fmt.Errorf("workflow %s: task %s depends on unknown %s (add tasks in topological order)", w.ID, name, d)
		}
		t.deps = append(t.deps, dep)
	}
	t.remaining = len(t.deps)
	w.tasks[name] = t
	w.order = append(w.order, name)
	return nil
}

// Tasks returns the number of tasks.
func (w *Instance) Tasks() int { return len(w.tasks) }

// Released and Completed return progress counters.
func (w *Instance) Released() int  { return w.released }
func (w *Instance) Completed() int { return w.completed }

// Makespan returns the end-to-end duration once complete.
func (w *Instance) Makespan() des.Time { return w.endedAt - w.startedAt }

// Start releases all ready tasks. The caller must invoke TaskFinished as
// released jobs reach a terminal state (the scenario layer wires scheduler
// events to this).
func (w *Instance) Start() error {
	if w.running {
		return fmt.Errorf("workflow %s: already started", w.ID)
	}
	if len(w.tasks) == 0 {
		return fmt.Errorf("workflow %s: no tasks", w.ID)
	}
	w.running = true
	w.startedAt = w.k.Now()
	w.releaseReady()
	return nil
}

func (w *Instance) releaseReady() {
	for _, name := range w.order {
		t := w.tasks[name]
		if t.released || t.remaining > 0 {
			continue
		}
		t.released = true
		w.released++
		if w.Tagged {
			t.Job.Attr.WorkflowID = w.id
			t.Job.Attr.WorkflowEngine = w.engine
		}
		t.Job.Truth.Modality = job.SymWorkflow
		t.Job.Truth.CampaignID = w.id
		w.submit.SubmitJob(t.Job)
	}
}

// TaskFinished informs the engine that a released job reached a terminal
// state. Successor tasks whose dependencies are all complete are released.
// Failed tasks abort the workflow (no further releases). j is matched only
// against tasks that still hold their jobs, so a job object reused after
// an earlier task let go of it never matches that task.
func (w *Instance) TaskFinished(j *job.Job) {
	var t *Task
	for _, name := range w.order {
		if w.tasks[name].Job == j {
			t = w.tasks[name]
			break
		}
	}
	if t == nil || t.done {
		return
	}
	t.done = true
	t.Job, t.runTime = nil, j.RunTime
	w.completed++
	if j.State != job.StateCompleted {
		// Task failed or was killed: abort (release nothing further).
		w.finishIfDone(true)
		return
	}
	for _, name := range w.order {
		cand := w.tasks[name]
		for _, d := range cand.deps {
			if d == t {
				cand.remaining--
			}
		}
	}
	w.releaseReady()
	w.finishIfDone(false)
}

func (w *Instance) finishIfDone(aborted bool) {
	if aborted || w.completed == len(w.tasks) {
		if w.endedAt == 0 {
			w.endedAt = w.k.Now()
			if w.OnComplete != nil {
				w.OnComplete(w)
			}
		}
	}
}

// CriticalPathLength returns the sum of task runtimes along the longest
// dependency chain — the theoretical minimum makespan on an unloaded,
// infinitely wide machine.
func (w *Instance) CriticalPathLength() des.Time {
	memo := make(map[*Task]des.Time)
	var longest func(t *Task) des.Time
	longest = func(t *Task) des.Time {
		if v, ok := memo[t]; ok {
			return v
		}
		best := des.Time(0)
		for _, d := range t.deps {
			if l := longest(d); l > best {
				best = l
			}
		}
		run := t.runTime
		if t.Job != nil {
			run = t.Job.RunTime
		}
		v := best + run
		memo[t] = v
		return v
	}
	best := des.Time(0)
	for _, name := range w.order {
		if l := longest(w.tasks[name]); l > best {
			best = l
		}
	}
	return best
}

// Chain builds a linear workflow: each stage depends on the previous one.
func Chain(id, engine string, tagged bool, k *des.Kernel, syms *job.Symbols, s Submitter, jobs []*job.Job) (*Instance, error) {
	w := NewInstance(id, engine, tagged, k, syms, s)
	prev := ""
	for i, j := range jobs {
		// Stage names repeat across every chain campaign in a run; intern
		// so each distinct index is stored once, not once per campaign.
		name := des.Intern(fmt.Sprintf("stage-%03d", i))
		var deps []string
		if prev != "" {
			deps = append(deps, prev)
		}
		if err := w.AddTask(name, j, deps...); err != nil {
			return nil, err
		}
		prev = name
	}
	return w, nil
}

// FanOutFanIn builds the common split-process-merge shape: a setup task, n
// parallel workers, and a merge task depending on all workers.
func FanOutFanIn(id, engine string, tagged bool, k *des.Kernel, syms *job.Symbols, s Submitter,
	setup *job.Job, workers []*job.Job, merge *job.Job) (*Instance, error) {
	w := NewInstance(id, engine, tagged, k, syms, s)
	if err := w.AddTask("setup", setup); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(workers))
	for i, wj := range workers {
		name := des.Intern(fmt.Sprintf("worker-%03d", i))
		if err := w.AddTask(name, wj, "setup"); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if err := w.AddTask("merge", merge, names...); err != nil {
		return nil, err
	}
	return w, nil
}
