// Trace replay: the trace-driven evaluation loop. A month of usage on a
// mid-size machine is recorded, exported to the Standard Workload Format,
// re-parsed, and replayed onto a machine half the size under two policies —
// answering the capacity-planning question "what would our recorded
// workload have experienced elsewhere?" entirely through the public trace
// interchange path.
//
// Run with:
//
//	go run ./examples/trace_replay
package main

import (
	"bytes"
	"fmt"
	"github.com/tgsim/tgmod/internal/job"
	"log"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/grid"
	"github.com/tgsim/tgmod/internal/metrics"
	"github.com/tgsim/tgmod/internal/report"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/simrand"
	"github.com/tgsim/tgmod/internal/trace"
	"github.com/tgsim/tgmod/internal/users"
	"github.com/tgsim/tgmod/internal/workload"
)

func main() {
	// Phase 1: record a month on a 4096-core machine under EASY.
	syms := job.NewSymbols()
	original := record(syms)
	fmt.Printf("recorded %d jobs on the original machine\n", len(original))

	// Phase 2: round-trip through SWF (the archive interchange format).
	var buf bytes.Buffer
	if err := trace.WriteSWF(&buf, original, syms); err != nil {
		log.Fatal(err)
	}
	parsed, err := trace.ReadSWF(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SWF round trip: %d entries\n\n", len(parsed))

	// Phase 3: replay onto a machine half the size, both policies.
	t := report.NewTable("Replay on a half-size machine",
		"policy", "finished", "mean wait (h)", "P95 wait (h)", "utilization")
	for _, pol := range []string{"fcfs", "easy"} {
		finished, waits, util := replay(parsed, pol)
		t.AddRowf(pol, finished, waits.Mean(), waits.Percentile(95),
			report.Percent(util))
	}
	fmt.Println(t)
	fmt.Println("The recorded workload saturates the smaller machine; backfill")
	fmt.Println("absorbs part of the squeeze that strict FIFO turns into queue time.")
}

// record simulates the original machine and returns its accounting
// records, whose strings index syms.
func record(syms *job.Symbols) []*accounting.JobRecord {
	k := des.New()
	m := &grid.Machine{ID: "orig", Site: "s", Nodes: 512, CoresPerNode: 8,
		NUPerCoreHour: 1.5}
	s := sched.MustNamed(k, syms, m, "easy")
	var recs []*accounting.JobRecord
	s.Subscribe(func(e sched.Event) {
		if e.Kind == sched.EventFinished {
			r := accounting.RecordOf(e.Job, m)
			recs = append(recs, &r)
		}
	})
	pop, err := users.Synthesize(users.Config{Projects: 20, UsersPerProjMu: 0.5,
		UsersPerProjSd: 0.5, ActivityAlpha: 1.5}, simrand.New(5))
	if err != nil {
		log.Fatal(err)
	}
	env := &workload.Env{
		K: k, Seed: 5, Horizon: 30 * des.Day, Syms: syms, Pop: pop,
		Sched: map[string]*sched.Scheduler{"orig": s}, Jobs: new(job.Pool),
	}
	(&workload.BatchGen{JobsPerDay: 300, CapabilityFrac: 0.005,
		MedianRuntime: 2 * 3600}).Start(env)
	k.Run()
	return recs
}

// replay runs the parsed trace against a half-size machine.
func replay(parsed []trace.Job, pol string) (int, *metrics.Sample, float64) {
	k := des.New()
	m := &grid.Machine{ID: "half", Site: "s", Nodes: 256, CoresPerNode: 8,
		NUPerCoreHour: 1.5}
	syms := job.NewSymbols()
	s := sched.MustNamed(k, syms, m, pol)
	waits := &metrics.Sample{}
	finished := 0
	s.Subscribe(func(e sched.Event) {
		if e.Kind == sched.EventFinished {
			finished++
			waits.Add(float64(e.Job.WaitTime()) / 3600)
		}
	})
	env := &workload.Env{K: k, Horizon: 60 * des.Day, Syms: syms,
		Sched: map[string]*sched.Scheduler{"half": s}, Jobs: new(job.Pool)}
	(&workload.ReplayGen{Jobs: parsed, Machine: "half"}).Start(env)
	k.Run()
	return finished, waits, s.Utilization()
}
