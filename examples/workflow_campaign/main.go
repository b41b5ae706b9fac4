// Workflow campaign: a CyberShake-style hazard study — for each of 20
// sites, a preprocessing stage, a fan-out of post-processing workers, and a
// merge — executed through the workflow engine against a real scheduler.
// Half the campaigns run under an instrumented engine that tags jobs; half
// are homegrown scripts. The example shows what the modality measurement
// framework recovers in each case.
//
// Run with:
//
//	go run ./examples/workflow_campaign
package main

import (
	"fmt"
	"log"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/grid"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/report"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/simrand"
	"github.com/tgsim/tgmod/internal/workflow"
)

type schedSubmitter struct {
	s *sched.Scheduler
	w *workflow.Instance
	// seen maps released jobs to their instance for finish routing.
	seen map[job.ID]*workflow.Instance
}

func (ss *schedSubmitter) SubmitJob(j *job.Job) {
	ss.seen[j.ID] = ss.w
	ss.s.Submit(j)
}

func main() {
	k := des.New()
	m := &grid.Machine{ID: "hpc", Site: "s", Nodes: 256, CoresPerNode: 8,
		NUPerCoreHour: 1.4}
	central := accounting.NewCentral(nil)
	syms := central.Syms()
	s := sched.MustNamed(k, syms, m, "easy")
	rng := simrand.New(7)
	ledger := accounting.NewLedger("s", syms)

	seen := make(map[job.ID]*workflow.Instance)
	s.Subscribe(func(e sched.Event) {
		if e.Kind != sched.EventFinished {
			return
		}
		ledger.AddJob(accounting.RecordOf(e.Job, m))
		if w, ok := seen[e.Job.ID]; ok {
			w.TaskFinished(e.Job)
		}
	})

	var instances []*workflow.Instance
	nextID := job.ID(0)
	mkJob := func(cores int, run des.Time) *job.Job {
		nextID++
		return &job.Job{
			ID: nextID, Name: syms.Intern("cybershake-task"), User: syms.Intern("scec"), Project: syms.Intern("TG-SCEC"),
			Cores: cores, RunTime: run, ReqWalltime: run * 2,
		}
	}
	for site := 0; site < 20; site++ {
		tagged := site%2 == 0
		engine := "homegrown-script"
		if tagged {
			engine = "pegasus"
		}
		workers := make([]*job.Job, 12)
		for i := range workers {
			workers[i] = mkJob(8, des.Time(600+rng.Intn(1800)))
		}
		// The submitter needs the instance for finish routing and the
		// instance needs the submitter at construction; bind after build.
		sub := &schedSubmitter{s: s, seen: seen}
		w, err := workflow.FanOutFanIn(fmt.Sprintf("hazard-site-%02d", site), engine,
			tagged, k, syms, sub, mkJob(32, 900), workers, mkJob(16, 600))
		if err != nil {
			log.Fatal(err)
		}
		sub.w = w
		instances = append(instances, w)
		start := des.Time(site) * 2 * des.Hour
		k.At(start, func(*des.Kernel) {
			if err := w.Start(); err != nil {
				log.Fatal(err)
			}
		})
	}
	k.Run()

	if p := ledger.Flush(k.Now()); p != nil {
		if err := central.Ingest(p); err != nil {
			log.Fatal(err)
		}
	}

	t := report.NewTable("Campaign outcomes", "workflow", "engine", "tasks", "makespan", "critical path")
	for _, w := range instances {
		t.AddRowf(w.ID, w.Engine, w.Completed(), w.Makespan().String(),
			w.CriticalPathLength().String())
	}
	fmt.Println(t)

	cl := core.NewClassifier(core.Config{LargestCores: m.BatchCores()})
	conf := core.Validate(central, cl.Classify(central))
	fmt.Printf("workflow recall overall: %.3f\n", conf.Recall(string(job.ModWorkflow)))
	fmt.Println("Tagged (pegasus) campaigns are measured directly from attributes;")
	fmt.Println("homegrown scripts are only recovered when their submission pattern")
	fmt.Println("looks dependency-driven — the gap motivates attribute deployment.")
}
