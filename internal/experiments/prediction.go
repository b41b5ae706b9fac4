package experiments

import (
	"fmt"
	"math"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/metrics"
	"github.com/tgsim/tgmod/internal/report"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/simrand"
)

// F9Prediction measures the queue-wait predictor that resource-selection
// tools expose: at each probe job's submission the scheduler's
// EstimateStart is recorded and later compared with the actual start.
// Under EASY the estimate is conservative (backfill can only start jobs
// earlier than planned), so the expected shape is non-negative bias with
// error growing with queue depth.
func F9Prediction(seed uint64, sc Scale) (*report.Table, error) {
	n := 2500
	if sc == Full {
		n = 15000
	}
	t := report.NewTable("F9: Queue-wait prediction error (estimate − actual, hours)",
		"offered load", "probes", "median err", "P90 err", "early starts", "late starts")
	for _, load := range []float64{0.6, 0.8, 0.95} {
		k := des.New()
		syms := job.NewSymbols()
		s, err := sched.NewNamed(k, syms, schedulerMachine(), "easy")
		if err != nil {
			return nil, err
		}
		rng := simrand.Derive(seed, fmt.Sprintf("f9-%v", load))
		jobs := syntheticStream(k, syms, s, rng, n, load)
		// Record the estimate for every 20th job the instant it queues
		// (the moment a resource-selection tool would have polled).
		type probe struct {
			j        *job.Job
			estStart des.Time
			ok       bool
		}
		probes := make([]*probe, 0, n/20+1)
		idx := make(map[job.ID]*probe, n/20+1)
		for i, j := range jobs {
			if i%20 != 0 {
				continue
			}
			pr := &probe{j: j}
			probes = append(probes, pr)
			idx[j.ID] = pr
		}
		s.Subscribe(func(e sched.Event) {
			if e.Kind != sched.EventQueued {
				return
			}
			if pr, ok := idx[e.Job.ID]; ok && !pr.ok {
				// EstimateStart plans the live queue, which already holds
				// the probe itself; the small own-footprint pessimism that
				// introduces is part of the real tool's behavior too.
				if at, ok2 := s.EstimateStart(e.Job.Cores, e.Job.ReqWalltime); ok2 {
					pr.estStart, pr.ok = at, true
				}
			}
		})
		k.Run()
		var errs metrics.Sample
		early, late := 0, 0
		for _, pr := range probes {
			if !pr.ok || !pr.j.State.Terminal() {
				continue
			}
			diff := float64(pr.estStart-pr.j.StartTime) / 3600
			errs.Add(diff)
			if diff > 0.01 {
				early++ // started earlier than predicted (backfill win)
			} else if diff < -0.01 {
				late++
			}
		}
		t.AddRowf(fmt.Sprintf("%.2f", load), errs.N(),
			round2(errs.Median()), round2(errs.Percentile(90)), early, late)
	}
	return t, nil
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
