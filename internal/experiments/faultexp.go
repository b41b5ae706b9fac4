// FT: the chaos experiment. Runs the standard measurement scenario under
// increasing fault intensity — unplanned machine crashes, node failures,
// link partitions, and gateway flaps, all deterministic per seed — and
// reports how each usage modality degrades: goodput (NUs charged for
// completed jobs), wasted NUs (execution lost past the last checkpoint),
// and completion rate, with fleet confidence intervals.
//
// The qualitative expectation (see EXPERIMENTS.md): gateway and
// metascheduled work degrade most gracefully — retries resubmit through
// flapping endpoints and failover reroutes crash victims — while large
// batch jobs bear most of the wasted work, since a crash forfeits the
// longest uncheckpointed runs.
package experiments

import (
	"fmt"
	"sort"

	"github.com/tgsim/tgmod/internal/fleet"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/report"
	"github.com/tgsim/tgmod/internal/scenario"
)

// ftModality is one modality's resilience sample from one replication.
type ftModality struct {
	Goodput   float64 // NUs charged to completed jobs
	Wasted    float64 // NUs lost to unplanned kills past the last checkpoint
	Jobs      int
	Completed int
}

// ftSample is what FT's Inspect extracts from one replication before the
// heavyweight result is released.
type ftSample struct {
	ByModality map[string]*ftModality
	Crashes    uint64
	Failovers  uint64
	Retries    uint64
}

func ftInspect(_ uint64, res *scenario.Result) any {
	s := &ftSample{ByModality: make(map[string]*ftModality)}
	syms := res.Central.Syms()
	for _, r := range res.Central.Jobs() {
		mod := syms.Str(r.TruthModality)
		if mod == "" {
			mod = string(job.ModUnknown)
		}
		m := s.ByModality[mod]
		if m == nil {
			m = &ftModality{}
			s.ByModality[mod] = m
		}
		m.Jobs++
		m.Wasted += r.WastedNUs
		if r.ExitStatus == job.SymCompleted {
			m.Completed++
			m.Goodput += r.NUs
		}
	}
	if res.Faults != nil {
		st := res.Faults.Stats()
		s.Crashes = st.MachineCrashes
		s.Failovers = st.Failovers
		s.Retries = st.GatewayRetries + st.TransferRestarts
	}
	return s
}

// ftStat summarizes one per-modality scalar across a fleet's replications.
func ftStat(reps []fleet.Rep, f func(*ftSample) float64) fleet.Stat {
	var samples []float64
	for i := range reps {
		if reps[i].Err != nil {
			continue
		}
		if s, ok := reps[i].Custom.(*ftSample); ok {
			samples = append(samples, f(s))
		}
	}
	return fleet.Summarize(samples)
}

// FTChaos sweeps fault intensity over small replication fleets and reports
// per-modality goodput, wasted NUs, and completion rate. Intensity 0 is the
// fault-free baseline; 1 is the nominal MTBF mix; higher values fail
// proportionally more often. All runs checkpoint every 30 minutes, so
// wasted work measures the tail past the last checkpoint.
func FTChaos(seed uint64, sc Scale) (*report.Table, error) {
	reps := 3
	if sc == Full {
		reps = 8
	}
	intensities := []float64{0, 0.5, 1, 2}

	t := report.NewTable(
		fmt.Sprintf("FT: modality resilience under fault injection, mean ± 95%% CI over %d seeds", reps),
		"intensity", "modality", "jobs", "goodput NUs", "wasted NUs", "completion %")

	for _, x := range intensities {
		x := x
		spec := fleet.Spec{
			Reps:     reps,
			BaseSeed: seed,
			Build: func(s uint64) scenario.Config {
				opts := append(StandardOptions(sc),
					scenario.WithCheckpointRestart(1800, 0))
				if x > 0 {
					opts = append(opts, scenario.WithFaultIntensity(x))
				}
				return scenario.New(s, opts...)
			},
			Inspect: ftInspect,
		}
		res, err := fleet.Run(spec)
		if err != nil {
			return nil, fmt.Errorf("FT (intensity=%g): %w", x, err)
		}

		// Federation-wide row first, then the per-modality breakdown.
		total := func(f func(*ftModality) float64) func(*ftSample) float64 {
			return func(s *ftSample) float64 {
				var v float64
				for _, m := range s.ByModality {
					v += f(m)
				}
				return v
			}
		}
		jobs := ftStat(res.Reps, total(func(m *ftModality) float64 { return float64(m.Jobs) }))
		good := ftStat(res.Reps, total(func(m *ftModality) float64 { return m.Goodput }))
		waste := ftStat(res.Reps, total(func(m *ftModality) float64 { return m.Wasted }))
		comp := ftStat(res.Reps, func(s *ftSample) float64 {
			var done, all float64
			for _, m := range s.ByModality {
				done += float64(m.Completed)
				all += float64(m.Jobs)
			}
			if all == 0 {
				return 0
			}
			return 100 * done / all
		})
		t.AddRow(report.FormatFloat(x), "all",
			jobs.String(), good.String(), waste.String(), comp.String())

		mods := make([]string, 0, len(job.AllModalities))
		for _, m := range job.AllModalities {
			mods = append(mods, string(m))
		}
		sort.Strings(mods)
		for _, mod := range mods {
			mod := mod
			pick := func(f func(*ftModality) float64) fleet.Stat {
				return ftStat(res.Reps, func(s *ftSample) float64 {
					if m := s.ByModality[mod]; m != nil {
						return f(m)
					}
					return 0
				})
			}
			jobs := pick(func(m *ftModality) float64 { return float64(m.Jobs) })
			if jobs.Max == 0 {
				continue
			}
			good := pick(func(m *ftModality) float64 { return m.Goodput })
			waste := pick(func(m *ftModality) float64 { return m.Wasted })
			comp := ftStat(res.Reps, func(s *ftSample) float64 {
				m := s.ByModality[mod]
				if m == nil || m.Jobs == 0 {
					return 0
				}
				return 100 * float64(m.Completed) / float64(m.Jobs)
			})
			t.AddRow("", mod, jobs.String(), good.String(), waste.String(), comp.String())
		}
	}
	return t, nil
}
