package fleet

import (
	"fmt"
	"sort"

	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/report"
)

// String renders the "mean ± ci95" table cell; with fewer than two
// replications there is no interval and the cell is the mean alone.
func (s Stat) String() string {
	if s.N < 2 {
		return report.FormatFloat(s.Mean)
	}
	return report.FormatFloat(s.Mean) + " ± " + report.FormatFloat(s.CI95)
}

// SummaryTable reports the fleet itself: replication count, worker width,
// wall-clock, aggregate throughput, and cross-rep spread of the headline
// per-replication scalars.
func (r *Result) SummaryTable() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Replication fleet: %d reps x %d workers (base seed %d)",
			len(r.Reps), r.Workers, r.Spec.BaseSeed),
		"metric", "value")
	t.AddRow("replications ok", fmt.Sprintf("%d / %d", r.Succeeded(), len(r.Reps)))
	t.AddRow("fleet wall clock", report.FormatFloat(r.Wall)+" s")
	t.AddRow("kernel events (total)", report.GroupInt(int64(r.TotalEvents())))
	t.AddRow("aggregate throughput", report.GroupInt(int64(r.EventsPerSec()))+" events/s")
	t.AddRow("finished jobs", r.Stat(func(rep *Rep) float64 { return float64(rep.Finished) }).String())
	t.AddRow("total NUs", r.Stat(func(rep *Rep) float64 { return rep.Report.TotalNUs }).String())
	t.AddRow("peak FEL", r.Stat(func(rep *Rep) float64 { return float64(rep.PeakFEL) }).String())
	// Failed replications stay visible in the merged report — one row per
	// bad seed with its error — instead of silently shrinking the CI count
	// or aborting the fleet.
	for i := range r.Reps {
		if err := r.Reps[i].Err; err != nil {
			t.AddRow(fmt.Sprintf("rep %d (seed %d)", r.Reps[i].Index, r.Reps[i].Seed),
				"FAILED: "+err.Error())
		}
	}
	return t
}

// ModalityTable reports per-modality usage with 95% confidence intervals
// across replications, in the canonical modality order.
func (r *Result) ModalityTable() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Usage by modality, mean ± 95%% CI over %d replications", r.Succeeded()),
		"modality", "jobs", "NUs", "acct users", "end users")
	for _, m := range job.AllModalities {
		m := m
		jobs := r.Stat(func(rep *Rep) float64 { return float64(rep.Report.Row(m).Jobs) })
		nus := r.Stat(func(rep *Rep) float64 { return rep.Report.Row(m).NUs })
		acct := r.Stat(func(rep *Rep) float64 { return float64(rep.Report.Row(m).AccountUsers) })
		end := r.Stat(func(rep *Rep) float64 { return float64(rep.Report.Row(m).EndUsers) })
		if jobs.N == 0 || jobs.Max == 0 && nus.Max == 0 {
			continue
		}
		t.AddRow(string(m), jobs.String(), nus.String(), acct.String(), end.String())
	}
	return t
}

// MechanismTable reports per-submission-mechanism usage with 95%
// confidence intervals across replications. Mechanisms are the union over
// replications, sorted by mean NUs descending.
func (r *Result) MechanismTable() *report.Table {
	mechs := map[string]bool{}
	for i := range r.Reps {
		if r.Reps[i].Err != nil {
			continue
		}
		for _, row := range r.Reps[i].Mechanisms {
			mechs[row.Mechanism] = true
		}
	}
	type entry struct {
		name             string
		jobs, nus, users Stat
	}
	rows := make([]entry, 0, len(mechs))
	for name := range mechs {
		name := name
		pick := func(rep *Rep) (row struct {
			jobs, users int
			nus         float64
		}) {
			for _, mr := range rep.Mechanisms {
				if mr.Mechanism == name {
					row.jobs, row.nus, row.users = mr.Jobs, mr.NUs, mr.AccountUsers
					return
				}
			}
			return
		}
		rows = append(rows, entry{
			name: name,
			jobs: r.Stat(func(rep *Rep) float64 { return float64(pick(rep).jobs) }),
			nus:  r.Stat(func(rep *Rep) float64 { return pick(rep).nus }),
			users: r.Stat(func(rep *Rep) float64 {
				return float64(pick(rep).users)
			}),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].nus.Mean != rows[j].nus.Mean {
			return rows[i].nus.Mean > rows[j].nus.Mean
		}
		return rows[i].name < rows[j].name
	})
	t := report.NewTable(
		fmt.Sprintf("Usage by submission mechanism, mean ± 95%% CI over %d replications", r.Succeeded()),
		"mechanism", "jobs", "NUs", "acct users")
	for _, e := range rows {
		t.AddRow(e.name, e.jobs.String(), e.nus.String(), e.users.String())
	}
	return t
}
