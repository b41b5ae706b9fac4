// Scheduler comparison: the substrate ablation. Replays the identical
// workload against FCFS, EASY, and conservative backfill and reports
// utilization, waits, and bounded slowdown — the numbers that justified
// backfilling on production machines and that make the simulated substrate
// credible for the measurement experiments built on it.
//
// Run with:
//
//	go run ./examples/scheduler_comparison
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

// workloadSpec is one job request; regenerated identically per policy.
type workloadSpec struct {
	at    des.Time
	cores int
	run   des.Time
	wall  des.Time
}

func buildWorkload(n int) []workloadSpec {
	rng := simrand.New(2024)
	specs := make([]workloadSpec, 0, n)
	at := des.Time(0)
	for i := 0; i < n; i++ {
		run := des.Time(rng.LogNormal(8.0, 1.1))
		specs = append(specs, workloadSpec{
			at:    at,
			cores: rng.PowerOfTwo(3, 10),
			run:   run,
			wall:  des.Time(float64(run) * (1.2 + 2.5*rng.Float64())),
		})
		at += des.Time(rng.Exp(0.011))
	}
	return specs
}

func main() {
	const n = 8000
	specs := buildWorkload(n)
	t := report.NewTable("Policy comparison on an identical 8,000-job stream",
		"policy", "utilization", "mean wait (h)", "P95 wait (h)", "mean bounded slowdown")
	for _, pol := range []string{"fcfs", "easy", "conservative"} {
		k := des.New()
		m := &grid.Machine{ID: "bench", Site: "s", Nodes: 512, CoresPerNode: 8,
			NUPerCoreHour: 1}
		syms := job.NewSymbols()
		s := sched.MustNamed(k, syms, m, pol)
		jobs := make([]*job.Job, n)
		for i, spec := range specs {
			jobs[i] = &job.Job{
				ID: job.ID(i + 1), Name: syms.Intern("j"), User: syms.Intern(fmt.Sprintf("u%d", i%64)),
				Project: syms.Intern("p"), Cores: spec.cores, RunTime: spec.run, ReqWalltime: spec.wall,
			}
			jj := jobs[i]
			k.At(spec.at, func(*des.Kernel) { s.Submit(jj) })
		}
		k.Run()
		var wait, slow metrics.Sample
		for _, j := range jobs {
			wait.Add(float64(j.WaitTime()) / 3600)
			slow.Add(j.BoundedSlowdown())
		}
		t.AddRowf(pol, report.Percent(s.Utilization()),
			wait.Mean(), wait.Percentile(95), slow.Mean())
	}
	fmt.Println(t)
	fmt.Println("EASY and conservative backfill fill the holes FCFS leaves;")
	fmt.Println("the utilization gap is the 'free' capacity backfilling recovers.")
}
