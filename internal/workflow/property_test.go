package workflow

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/simrand"
)

// delayRunner simulates each submitted job with its RunTime on the kernel,
// then reports completion back to the instance — a minimal stand-in for
// the batch scheduler with unlimited capacity.
type delayRunner struct {
	k *des.Kernel
	w *Instance
	// released counts distinct jobs; double releases would break it.
	released map[job.ID]int
}

func (d *delayRunner) SubmitJob(j *job.Job) {
	d.released[j.ID]++
	jj := j
	d.k.Schedule(jj.RunTime, func(*des.Kernel) {
		jj.State = job.StateCompleted
		jj.EndTime = d.k.Now()
		d.w.TaskFinished(jj)
	})
}

// TestRandomDAGProperty builds random layered DAGs and checks:
// every task released exactly once, the instance completes, and the
// makespan on an unlimited machine equals the critical path.
func TestRandomDAGProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := simrand.New(seed)
		k := des.New()
		runner := &delayRunner{k: k, released: make(map[job.ID]int)}
		w := NewInstance("prop", "engine", rng.Bool(0.5), k, testSyms, runner)
		runner.w = w

		layers := 2 + rng.Intn(4)
		var prevLayer []string
		id := job.ID(0)
		total := 0
		for l := 0; l < layers; l++ {
			width := 1 + rng.Intn(5)
			var thisLayer []string
			for n := 0; n < width; n++ {
				id++
				total++
				name := fmt.Sprintf("t%d-%d", l, n)
				jb := &job.Job{
					ID: id, Name: testSyms.Intern(name), User: testSyms.Intern("u"), Project: testSyms.Intern("p"), Cores: 1,
					RunTime:     des.Time(1 + rng.Intn(100)),
					ReqWalltime: des.Time(200),
				}
				// Depend on a random nonempty subset of the previous layer.
				var deps []string
				for _, p := range prevLayer {
					if rng.Bool(0.6) {
						deps = append(deps, p)
					}
				}
				if len(prevLayer) > 0 && len(deps) == 0 {
					deps = append(deps, prevLayer[rng.Intn(len(prevLayer))])
				}
				if err := w.AddTask(name, jb, deps...); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				thisLayer = append(thisLayer, name)
			}
			prevLayer = thisLayer
		}
		done := false
		w.OnComplete = func(*Instance) { done = true }
		if err := w.Start(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		k.Run()
		if !done {
			t.Fatalf("seed %d: workflow did not complete (%d/%d)", seed, w.Completed(), total)
		}
		if w.Completed() != total || w.Released() != total {
			return false
		}
		for jid, n := range runner.released {
			if n != 1 {
				t.Fatalf("seed %d: job %d released %d times", seed, jid, n)
			}
		}
		// Unlimited capacity: makespan equals the critical path exactly.
		return w.Makespan() == w.CriticalPathLength()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
