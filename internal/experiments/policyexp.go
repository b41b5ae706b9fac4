package experiments

import (
	"strings"

	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/report"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/slo"
)

// pxWaitModalities are the per-modality wait columns in PX: the modalities
// whose queueing behavior the engines treat differently. The remaining
// modalities (interactive, data-centric, metascheduled) ride the overall
// mean.
var pxWaitModalities = []job.Modality{
	job.ModBatchCapability, job.ModBatchCapacity, job.ModEnsemble,
	job.ModWorkflow, job.ModGateway, job.ModUrgent,
}

// PXPolicyEngines runs every registered policy engine against the identical
// high-load workload at one seed and reports utilization, the per-modality
// wait decomposition, and SLO conformance side by side. Expected shape
// (EXPERIMENTS.md): the backfill family clusters near the top on
// utilization while FCFS forfeits both utilization and wait; gang matches
// EASY's utilization but pays extra ensemble wait for all-or-nothing
// co-starts; priority and conservative trade throughput for their ordering
// guarantees (bounded starvation, committed start times).
func PXPolicyEngines(seed uint64, sc Scale) (*report.Table, error) {
	cols := []string{"policy", "utilization", "mean wait (h)"}
	for _, m := range pxWaitModalities {
		cols = append(cols, string(m))
	}
	cols = append(cols, "SLO met", "failed objectives")
	t := report.NewTable(
		"PX: Policy engines on the identical workload — utilization, wait by modality (h), SLO conformance",
		cols...)

	for _, name := range sched.EngineNames() {
		ev, err := slo.New()
		if err != nil {
			return nil, err
		}
		// The standard mix runs the federation light enough that backfill
		// never matters; PX raises the offered load until queues form, so
		// ordering and backfill choices actually separate the engines.
		cfg := scenario.New(seed, append(StandardOptions(sc),
			scenario.WithGenerators(quickGenerators(8.0, 0.5, 0.6, 0.9)...),
			scenario.WithPolicy(name),
			scenario.WithObserver(scenario.EvaluateSLO(ev)),
		)...)
		res, err := scenario.Run(cfg)
		if err != nil {
			return nil, err
		}

		// Core-weighted utilization across the federation.
		var busy, cores float64
		for _, m := range res.Federation.Machines() {
			busy += res.Schedulers[m.ID].Utilization() * float64(m.BatchCores())
			cores += float64(m.BatchCores())
		}

		// Wait decomposition over the accounting stream, keyed by the
		// generators' ground-truth modality.
		waitSum := make(map[job.Modality]float64)
		waitN := make(map[job.Modality]int)
		var allSum float64
		var allN int
		syms := res.Central.Syms()
		for _, r := range res.Central.Jobs() {
			w := r.StartTime - r.SubmitTime
			if w < 0 {
				continue
			}
			allSum += w
			allN++
			mod := job.Modality(syms.Str(r.TruthModality))
			waitSum[mod] += w
			waitN[mod]++
		}
		meanH := func(sum float64, n int) float64 {
			if n == 0 {
				return 0
			}
			return sum / float64(n) / 3600
		}

		met := "yes"
		if !ev.MetAll() {
			met = "no"
		}
		failed := "-"
		if f := ev.Failed(); len(f) > 0 {
			failed = strings.Join(f, " ")
		}

		row := []interface{}{name, report.Percent(busy / cores), meanH(allSum, allN)}
		for _, m := range pxWaitModalities {
			row = append(row, meanH(waitSum[m], waitN[m]))
		}
		row = append(row, met, failed)
		t.AddRowf(row...)
	}
	return t, nil
}
