// Urgent computing: a hurricane-landfall forecasting campaign needs
// guaranteed immediate access on an urgent-capable machine while routine
// batch work continues. This example drives a storm sequence against a
// loaded machine and reports what on-demand access costs the rest of the
// community — the trade the on-demand modality forces operators to weigh.
//
// Run with:
//
//	go run ./examples/urgent_computing
package main

import (
	"fmt"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/grid"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/metrics"
	"github.com/tgsim/tgmod/internal/report"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/simrand"
)

func main() {
	k := des.New()
	machine := &grid.Machine{
		ID: "mesa-ranger", Site: "mesa", Nodes: 512, CoresPerNode: 16, // 8192 cores
		NUPerCoreHour: 1.9, UrgentCapable: true,
	}
	syms := job.NewSymbols()
	s := sched.MustNamed(k, syms, machine, "easy")
	rng := simrand.New(99)

	// Background batch load at ~85% of capacity for two weeks.
	var background []*job.Job
	id := job.ID(0)
	at := des.Time(0)
	for at < 14*des.Day {
		id++
		run := des.Time(rng.LogNormal(8.3, 1.0)) // median ~1.1h
		j := &job.Job{
			ID: id, Name: syms.Intern("batch"), User: syms.Intern(fmt.Sprintf("u%d", int(id)%40)), Project: syms.Intern("p"),
			Cores:   rng.PowerOfTwo(4, 10),
			RunTime: run, ReqWalltime: des.Time(float64(run) * 1.7),
		}
		background = append(background, j)
		jj := j
		k.At(at, func(*des.Kernel) { s.Submit(jj) })
		at += des.Time(rng.Exp(0.012)) // ~1000 jobs/day
	}

	// The storm: six forecast cycles, every 6 hours from day 5, each a
	// 2048-core urgent run that must start NOW.
	var forecasts []*job.Job
	for cycle := 0; cycle < 6; cycle++ {
		id++
		j := &job.Job{
			ID: id, Name: syms.Intern("wrf-landfall"), User: syms.Intern("noaa-urgent"), Project: syms.Intern("TG-URGENT"),
			Cores: 2048, RunTime: 2 * des.Hour, ReqWalltime: 3 * des.Hour,
			QOS: job.QOSUrgent,
		}
		forecasts = append(forecasts, j)
		jj := j
		k.At(5*des.Day+des.Time(cycle)*6*des.Hour, func(*des.Kernel) { s.Submit(jj) })
	}

	k.Run()

	t := report.NewTable("Forecast cycles", "cycle", "wait (s)", "state")
	for i, f := range forecasts {
		t.AddRowf(i+1, float64(f.WaitTime()), f.State.String())
	}
	fmt.Println(t)

	var waits metrics.Sample
	preempted := 0
	for _, j := range background {
		waits.Add(float64(j.WaitTime()) / 3600)
		if j.Preemptions > 0 {
			preempted++
		}
	}
	fmt.Printf("background jobs: %d, preempted: %d (%.2f%%), total preemption events: %d\n",
		len(background), preempted, 100*float64(preempted)/float64(len(background)),
		s.Stats().Preemptions)
	fmt.Printf("background median wait %.2fh, P95 %.2fh\n",
		waits.Median(), waits.Percentile(95))
	fmt.Printf("machine utilization over the fortnight: %s\n",
		report.Percent(s.Utilization()))
}
