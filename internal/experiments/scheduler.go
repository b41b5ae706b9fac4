package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/grid"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/metrics"
	"github.com/tgsim/tgmod/internal/report"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/simrand"
)

// schedulerMachine is the single-machine testbed for scheduling studies.
func schedulerMachine() *grid.Machine {
	return &grid.Machine{
		ID: "bench", Site: "bench", Nodes: 256, CoresPerNode: 8, // 2048 cores
		NUPerCoreHour: 1, UrgentCapable: true,
	}
}

// syntheticStream submits n jobs with lognormal runtimes and power-of-two
// sizes at a Poisson rate scaled to the target offered load (fraction of
// machine capacity).
func syntheticStream(k *des.Kernel, syms *job.Symbols, s *sched.Scheduler, rng *simrand.Stream,
	n int, load float64) []*job.Job {
	m := s.M
	const medianRun = 3600.0
	// Mean cores of the drawn distribution ≈ 64; offered load =
	// rate * meanRun * meanCores / capacity → solve for rate.
	meanRun := medianRun * 1.5
	meanCores := 64.0
	rate := load * float64(m.BatchCores()) / (meanRun * meanCores)
	at := des.Time(0)
	name, project := syms.Intern("synthetic"), syms.Intern("bench")
	jobs := make([]*job.Job, 0, n)
	for i := 0; i < n; i++ {
		at += des.Time(rng.Exp(rate))
		run := des.Time(rng.LogNormal(logOf(medianRun), 1.0))
		if run < 60 {
			run = 60
		}
		j := &job.Job{
			ID: job.ID(i + 1), Name: name, User: syms.Intern(fmt.Sprintf("u%d", i%50)),
			Project: project, Cores: rng.PowerOfTwo(3, 9),
			RunTime: run, ReqWalltime: des.Time(float64(run) * (1.2 + rng.Float64()*2)),
		}
		jobs = append(jobs, j)
		jj := j
		k.At(at, func(*des.Kernel) { s.Submit(jj) })
	}
	return jobs
}

func logOf(v float64) float64 { return math.Log(v) }

func nowNanos() int64 { return time.Now().UnixNano() }

// F3WaitBySize reports mean queue wait by job-size bin under each policy.
func F3WaitBySize(seed uint64, sc Scale) (*report.Figure, error) {
	n := 3000
	if sc == Full {
		n = 20000
	}
	f := report.NewFigure("F3: Mean queue wait (hours) by job size and policy", "size bin")
	for _, pol := range []string{"fcfs", "easy", "conservative", "fairshare"} {
		k := des.New()
		syms := job.NewSymbols()
		s, err := sched.NewNamed(k, syms, schedulerMachine(), pol)
		if err != nil {
			return nil, err
		}
		rng := simrand.Derive(seed, "f3-"+pol)
		jobs := syntheticStream(k, syms, s, rng, n, 0.9)
		k.Run()
		waits := map[string]*metrics.Summary{}
		for _, j := range jobs {
			if !j.State.Terminal() {
				continue
			}
			b := sizeBinOf(j.Cores)
			if waits[b] == nil {
				waits[b] = &metrics.Summary{}
			}
			waits[b].Add(float64(j.WaitTime()) / 3600)
		}
		series := f.AddSeries(pol)
		for _, b := range sizeBinsUsed() {
			if w, ok := waits[b]; ok {
				series.Add(b, w.Mean())
			} else {
				series.Add(b, 0)
			}
		}
	}
	return f, nil
}

// F4Utilization compares achieved utilization across policies at rising
// offered load — the backfill payoff curve.
func F4Utilization(seed uint64, sc Scale) (*report.Figure, error) {
	n := 2000
	if sc == Full {
		n = 15000
	}
	loads := []float64{0.5, 0.7, 0.85, 0.95, 1.1}
	f := report.NewFigure("F4: Achieved utilization vs offered load by policy", "offered load")
	for _, pol := range []string{"fcfs", "easy", "conservative", "fairshare"} {
		series := f.AddSeries(pol)
		for _, load := range loads {
			k := des.New()
			syms := job.NewSymbols()
			s, err := sched.NewNamed(k, syms, schedulerMachine(), pol)
			if err != nil {
				return nil, err
			}
			rng := simrand.Derive(seed, fmt.Sprintf("f4-%s-%v", pol, load))
			jobs := syntheticStream(k, syms, s, rng, n, load)
			k.Run()
			// Measure utilization over the span work was actually offered:
			// from t=0 to the last submit (avoids the drain tail skewing
			// comparisons between policies).
			lastSubmit := des.Time(0)
			for _, j := range jobs {
				if j.SubmitTime > lastSubmit {
					lastSubmit = j.SubmitTime
				}
			}
			busy := 0.0
			for _, j := range jobs {
				start, end := j.StartTime, j.EndTime
				if start > lastSubmit {
					continue
				}
				if end > lastSubmit {
					end = lastSubmit
				}
				busy += float64(end-start) * float64(j.Cores)
			}
			util := busy / (float64(lastSubmit) * float64(s.M.BatchCores()))
			series.Add(fmt.Sprintf("%.2f", load), util)
		}
	}
	return f, nil
}

// F5Urgent quantifies on-demand computing: urgent job wait vs the price
// paid by preempted victims, as the urgent arrival rate rises.
func F5Urgent(seed uint64, sc Scale) (*report.Table, error) {
	n := 2000
	if sc == Full {
		n = 12000
	}
	t := report.NewTable("F5: Urgent computing — responsiveness vs preemption cost",
		"urgent/day", "checkpointing", "urgent jobs", "mean urgent wait (s)", "preemptions",
		"victim lost core-hours", "normal P95 wait (h)")
	type variant struct {
		perDay float64
		ckpt   bool
	}
	variants := []variant{{0, false}, {2, false}, {8, false}, {24, false}, {24, true}}
	for _, v := range variants {
		perDay, ckpt := v.perDay, v.ckpt
		k := des.New()
		syms := job.NewSymbols()
		s, err := sched.NewNamed(k, syms, schedulerMachine(), "easy")
		if err != nil {
			return nil, err
		}
		s.CheckpointRestart = ckpt
		rng := simrand.Derive(seed, fmt.Sprintf("f5-%v", perDay))
		// Exact lost work: on every preemption, the time executed since
		// the (re)start is lost under full restart; under checkpointing
		// only the tail past the last checkpoint boundary is lost.
		lostCoreHours := 0.0
		s.Subscribe(func(e sched.Event) {
			if e.Kind != sched.EventPreempted {
				return
			}
			ran := float64(k.Now() - e.Job.StartTime)
			if ckpt {
				interval := 15 * 60.0
				ran = ran - float64(int64(ran/interval))*interval
			}
			lostCoreHours += ran * float64(e.Job.Cores) / 3600
		})
		jobs := syntheticStream(k, syms, s, rng, n, 0.85)
		// Urgent arrivals across the same span.
		span := des.Time(float64(n) / (0.85 * float64(s.M.BatchCores()) / (3600 * 1.5 * 64)))
		var urgents []*job.Job
		if perDay > 0 {
			gap := des.Time(86400 / perDay)
			id := job.ID(1000000)
			for at := gap; at < span; at += gap {
				id++
				run := des.Time(1800 + rng.Intn(3600))
				u := &job.Job{
					ID: id, Name: syms.Intern("urgent"), User: syms.Intern("noaa"), Project: syms.Intern("urgent"),
					Cores: 256, RunTime: run, ReqWalltime: run + 600,
					QOS: job.QOSUrgent,
				}
				urgents = append(urgents, u)
				uu := u
				k.At(at, func(*des.Kernel) { s.Submit(uu) })
			}
		}
		k.Run()
		var uWait metrics.Summary
		for _, u := range urgents {
			uWait.Add(float64(u.WaitTime()))
		}
		var normWait metrics.Sample
		for _, j := range jobs {
			normWait.Add(float64(j.WaitTime()) / 3600)
		}
		mode := "restart"
		if ckpt {
			mode = "checkpoint"
		}
		t.AddRowf(perDay, mode, len(urgents), uWait.Mean(), int(s.Stats().Preemptions),
			lostCoreHours, normWait.Percentile(95))
	}
	return t, nil
}

// F7Kernel measures raw DES kernel throughput at increasing pending-event
// populations.
func F7Kernel(sc Scale) *report.Table {
	events := []int{1000, 10000, 100000}
	if sc == Full {
		events = append(events, 1000000)
	}
	t := report.NewTable("F7: DES kernel throughput", "pending events", "events/sec (steady churn)")
	for _, n := range events {
		k := des.New()
		rng := simrand.New(uint64(n))
		// Self-rescheduling events maintain a stable heap population.
		var handler des.Handler
		executed := 0
		target := n * 20
		handler = func(kk *des.Kernel) {
			executed++
			if executed < target {
				kk.Schedule(des.Time(rng.Float64()*100), handler)
			}
		}
		for i := 0; i < n; i++ {
			k.Schedule(des.Time(rng.Float64()*100), handler)
		}
		start := nowNanos()
		k.Run()
		elapsed := float64(nowNanos()-start) / 1e9
		if elapsed <= 0 {
			elapsed = 1e-9
		}
		t.AddRowf(n, float64(executed)/elapsed)
	}
	return t
}

func sizeBinOf(cores int) string {
	switch {
	case cores <= 16:
		return "≤16"
	case cores <= 64:
		return "17-64"
	case cores <= 256:
		return "65-256"
	default:
		return ">256"
	}
}

func sizeBinsUsed() []string { return []string{"≤16", "17-64", "65-256", ">256"} }
