// Package experiments regenerates every table and figure in the evaluation
// (EXPERIMENTS.md). Each experiment is a function returning renderable
// report structures; cmd/benchtab prints them all and bench_test.go wraps
// each in a testing.B benchmark.
//
// The standard scenario (one simulated quarter of the TG9 federation at the
// default workload mix) is shared by the usage-measurement experiments;
// scheduler and kernel experiments build their own focused setups.
package experiments

import (
	"fmt"
	"sync"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/metrics"
	"github.com/tgsim/tgmod/internal/report"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/users"
	"github.com/tgsim/tgmod/internal/workload"
)

// Scale selects experiment sizing: Quick for CI/benchmarks, Full for the
// published numbers in EXPERIMENTS.md.
type Scale int

// Experiment scales.
const (
	Quick Scale = iota
	Full
)

// StandardConfig returns the shared measurement scenario at a scale.
// Built via the options API so callers (and fleet.Spec.Build closures) can
// re-derive it per seed; generators are constructed fresh on every call.
func StandardConfig(seed uint64, sc Scale) scenario.Config {
	return scenario.New(seed, StandardOptions(sc)...)
}

// StandardOptions returns the option list behind StandardConfig, for
// callers that want to compose further options on top of the standard
// scenario (an observer, a different horizon).
func StandardOptions(sc Scale) []scenario.Option {
	if sc != Quick {
		return nil
	}
	return []scenario.Option{
		scenario.WithHorizon(14 * des.Day),
		scenario.WithDrain(4 * des.Day),
		scenario.WithUsers(users.Config{Projects: 60, UsersPerProjMu: 0.8, UsersPerProjSd: 0.7, ActivityAlpha: 1.5}),
		scenario.WithGenerators(quickGenerators(1.0, 0.5, 0.6, 0.9)...),
	}
}

// quickGenerators builds the reduced-rate mix with adjustable attribute
// coverages: broker handled via config, ensemble/workflow/gateway here.
func quickGenerators(scale, ensembleCov, workflowTagged, gatewayCov float64) []workload.Generator {
	_ = gatewayCov // gateway coverage is set on the gateway configs
	return []workload.Generator{
		&workload.BatchGen{JobsPerDay: 250 * scale, CapabilityFrac: 0.006, MedianRuntime: 3600},
		&workload.EnsembleGen{CampaignsPerDay: 6 * scale, JobsPerCampaign: 15, TagCoverage: ensembleCov, MedianRuntime: 900},
		&workload.WorkflowGen{CampaignsPerDay: 5 * scale, TaggedFrac: workflowTagged, Workers: 6, MedianTask: 900},
		&workload.GatewayGen{Gateway: "nanohub", RequestsPerDay: 150 * scale, EndUsers: 800, MedianRuntime: 400},
		&workload.GatewayGen{Gateway: "cipres", RequestsPerDay: 60 * scale, EndUsers: 300, MedianRuntime: 900},
		&workload.GatewayGen{Gateway: "climate-portal", RequestsPerDay: 25 * scale, EndUsers: 120, MedianRuntime: 1800},
		&workload.UrgentGen{EventsPerWeek: 4 * scale, MedianRuntime: 2700},
		&workload.InteractiveGen{SessionsPerDay: 25 * scale, MedianSession: 1500},
		&workload.DataCentricGen{JobsPerDay: 15 * scale, MedianInputGB: 30, MedianRuntime: 2700},
		&workload.MetaschedGen{JobsPerDay: 30 * scale, CoAllocFrac: 0.05, MedianRuntime: 2700},
	}
}

// standardRun caches the shared scenario per (seed, scale).
var (
	runMu    sync.Mutex
	runCache = map[string]*scenario.Result{}
)

// standard returns the shared run, executing it on first use.
func standard(seed uint64, sc Scale) (*scenario.Result, error) {
	key := fmt.Sprintf("%d-%d", seed, sc)
	runMu.Lock()
	defer runMu.Unlock()
	if r, ok := runCache[key]; ok {
		return r, nil
	}
	r, err := scenario.Run(StandardConfig(seed, sc))
	if err != nil {
		return nil, err
	}
	runCache[key] = r
	return r, nil
}

// classifyStandard runs the classifier over a finished run.
func classifyStandard(res *scenario.Result) []core.Result {
	cl := core.NewClassifier(core.Config{LargestCores: res.LargestCores})
	return cl.Classify(res.Central)
}

// T1Taxonomy renders the modality taxonomy table (paper Table 1 analogue).
func T1Taxonomy() *report.Table {
	t := report.NewTable("T1: Usage-modality taxonomy and measurement sources",
		"id", "modality", "objective", "measured from", "fallback")
	for _, info := range core.Taxonomy() {
		fb := "-"
		if info.HasFallback {
			fb = info.Fallback.String()
		}
		t.AddRow(string(info.ID), info.Title, info.Objective, info.Source.String(), fb)
	}
	return t
}

// T2Mechanism renders usage by submission mechanism.
func T2Mechanism(seed uint64, sc Scale) (*report.Table, error) {
	res, err := standard(seed, sc)
	if err != nil {
		return nil, err
	}
	rows := core.MechanismReport(res.Central)
	total := res.Central.TotalNUs()
	t := report.NewTable("T2: Usage and users by submission mechanism",
		"mechanism", "jobs", "NUs", "NU share", "accounts")
	for _, r := range rows {
		t.AddRowf(r.Mechanism, r.Jobs, r.NUs, report.Percent(r.NUs/total), r.AccountUsers)
	}
	return t, nil
}

// T3ModalityUsage renders the central result: measured usage per modality
// with ground truth alongside.
func T3ModalityUsage(seed uint64, sc Scale) (*report.Table, error) {
	res, err := standard(seed, sc)
	if err != nil {
		return nil, err
	}
	results := classifyStandard(res)
	rep := core.BuildReport(res.Central, results)
	// Ground-truth NUs per modality for the comparison column.
	truthNUs := map[string]float64{}
	truthJobs := map[string]int{}
	syms := res.Central.Syms()
	for _, r := range res.Central.Jobs() {
		truthNUs[syms.Str(r.TruthModality)] += r.NUs
		truthJobs[syms.Str(r.TruthModality)]++
	}
	t := report.NewTable("T3: NUs and users by usage modality (measured vs ground truth)",
		"modality", "jobs", "NUs", "NU share", "accounts", "end users", "truth jobs", "truth NUs")
	for _, row := range rep.Rows {
		t.AddRowf(string(row.Modality), row.Jobs, row.NUs,
			report.Percent(row.NUs/rep.TotalNUs), row.AccountUsers, row.EndUsers,
			truthJobs[string(row.Modality)], truthNUs[string(row.Modality)])
	}
	return t, nil
}

// T4Coverage sweeps attribute coverage and reports per-modality F1 — the
// "what does more instrumentation buy" experiment motivating the paper's
// measurement program.
func T4Coverage(seed uint64, sc Scale) (*report.Table, error) {
	coverages := []float64{0, 0.25, 0.5, 0.75, 1.0}
	t := report.NewTable("T4: Classifier F1 vs instrumentation attribute coverage",
		"coverage", "accuracy", "gateway F1", "ensemble F1", "workflow F1", "metasched F1")
	for _, cov := range coverages {
		cfg := scenario.New(seed, append(StandardOptions(sc),
			scenario.WithBrokerTagCoverage(cov),
			scenario.WithGatewayCoverage(cov),
		)...)
		if sc == Quick {
			cfg.Generators = quickGenerators(1.0, cov, cov, cov)
		} else {
			gens := scenario.DefaultGenerators()
			for _, g := range gens {
				switch gg := g.(type) {
				case *workload.EnsembleGen:
					gg.TagCoverage = cov
				case *workload.WorkflowGen:
					gg.TaggedFrac = cov
				}
			}
			cfg.Generators = gens
		}
		res, err := scenario.Run(cfg)
		if err != nil {
			return nil, err
		}
		conf := core.Validate(res.Central, classifyStandard(res))
		t.AddRowf(report.Percent(cov), fmt.Sprintf("%.3f", conf.Accuracy()),
			fmt.Sprintf("%.3f", conf.F1(string(job.ModGateway))),
			fmt.Sprintf("%.3f", conf.F1(string(job.ModEnsemble))),
			fmt.Sprintf("%.3f", conf.F1(string(job.ModWorkflow))),
			fmt.Sprintf("%.3f", conf.F1(string(job.ModMetascheduled))))
	}
	return t, nil
}

// F1JobSize renders the job-size distribution: counts concentrate at small
// sizes while NUs concentrate at large sizes.
func F1JobSize(seed uint64, sc Scale) (*report.Figure, error) {
	res, err := standard(seed, sc)
	if err != nil {
		return nil, err
	}
	jobsBySize := map[string]float64{}
	nusBySize := map[string]float64{}
	for _, r := range res.Central.Jobs() {
		b := accounting.SizeBin(r.Cores)
		jobsBySize[b]++
		nusBySize[b] += r.NUs
	}
	f := report.NewFigure("F1: Jobs and NUs by job size (cores)", "size bin")
	js := f.AddSeries("jobs")
	ns := f.AddSeries("NUs")
	for _, b := range accounting.SizeBins {
		js.Add(b, jobsBySize[b])
		ns.Add(b, nusBySize[b])
	}
	return f, nil
}

// F2GatewayGrowth renders gateway end users and jobs per period over the
// horizon — community adoption growth.
func F2GatewayGrowth(seed uint64, sc Scale) (*report.Figure, error) {
	res, err := standard(seed, sc)
	if err != nil {
		return nil, err
	}
	// Quick scale has a short horizon; bucket weekly there, quarterly at
	// full scale.
	period := 91.25 * 24 * 3600 / 13 // weekly
	label := "week"
	if sc == Full {
		period = 91.25 * 24 * 3600
		label = "quarter"
	}
	type bucketSet map[int]map[uint64]bool
	usersPer := bucketSet{}
	jobsPer := map[int]int{}
	for _, run := range res.Central.GatewayAttrs() {
		for _, a := range run {
			b := int(a.At / period)
			if usersPer[b] == nil {
				usersPer[b] = map[uint64]bool{}
			}
			usersPer[b][a.EndUser()] = true
		}
	}
	for _, r := range res.Central.Jobs() {
		if r.GatewayID != job.SymNone {
			jobsPer[int(r.SubmitTime/period)]++
		}
	}
	maxB := 0
	for b := range jobsPer {
		if b > maxB {
			maxB = b
		}
	}
	f := report.NewFigure("F2: Gateway adoption over time", label)
	us := f.AddSeries("distinct end users")
	js := f.AddSeries("gateway jobs")
	for b := 0; b <= maxB; b++ {
		us.Add(fmt.Sprintf("%d", b+1), float64(len(usersPer[b])))
		js.Add(fmt.Sprintf("%d", b+1), float64(jobsPer[b]))
	}
	return f, nil
}

// F6Transfers renders WAN usage: bytes moved by ground-truth modality and
// per-site egress utilization.
func F6Transfers(seed uint64, sc Scale) (*report.Table, error) {
	res, err := standard(seed, sc)
	if err != nil {
		return nil, err
	}
	// Transfer records reference jobs; group bytes by the job's truth.
	byMod := map[string]float64{}
	count := map[string]int{}
	for _, run := range res.Central.Transfers() {
		for _, tr := range run {
			mod := "unattributed"
			if r, ok := res.Central.Job(tr.JobID); ok {
				mod = res.Central.Syms().Str(r.TruthModality)
			}
			byMod[mod] += float64(tr.Bytes)
			count[mod]++
		}
	}
	t := report.NewTable("F6: WAN transfer volume by modality",
		"modality", "transfers", "bytes")
	for _, m := range append([]string{"unattributed"}, modalityStrings()...) {
		if count[m] == 0 && byMod[m] == 0 {
			continue
		}
		t.AddRowf(m, count[m], report.Bytes(byMod[m]))
	}
	t.AddRowf("total moved (incl. in-flight accounting)", int(res.Fabric.Completed()),
		report.Bytes(res.Fabric.BytesMoved()))
	return t, nil
}

func modalityStrings() []string {
	out := make([]string, len(job.AllModalities))
	for i, m := range job.AllModalities {
		out[i] = string(m)
	}
	return out
}

// F8Inference ablates the ensemble-inference window: too small splits
// campaigns, too large merges unrelated jobs.
func F8Inference(seed uint64, sc Scale) (*report.Table, error) {
	res, err := standard(seed, sc)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("F8: Inference ablation — ensemble window & chain slack",
		"window (s)", "chain slack (s)", "accuracy", "ensemble F1", "workflow F1")
	for _, w := range []float64{300, 1800, 3600, 14400} {
		for _, slack := range []float64{60, 300, 1800} {
			cl := core.NewClassifier(core.Config{
				LargestCores:   res.LargestCores,
				EnsembleWindow: w,
				ChainSlack:     slack,
			})
			conf := core.Validate(res.Central, cl.Classify(res.Central))
			t.AddRowf(w, slack, fmt.Sprintf("%.3f", conf.Accuracy()),
				fmt.Sprintf("%.3f", conf.F1(string(job.ModEnsemble))),
				fmt.Sprintf("%.3f", conf.F1(string(job.ModWorkflow))))
		}
	}
	return t, nil
}

// GatewayVisibilityTable summarizes the community-account measurement gap.
func GatewayVisibilityTable(seed uint64, sc Scale) (*report.Table, error) {
	res, err := standard(seed, sc)
	if err != nil {
		return nil, err
	}
	v := core.MeasureGatewayVisibility(res.Central)
	t := report.NewTable("Gateway end-user visibility (AAAA attributes)",
		"metric", "value")
	t.AddRowf("gateway jobs", v.GatewayJobs)
	t.AddRowf("jobs with end-user attribute", v.AttributedJobs)
	t.AddRowf("community accounts (what TGCDB sees)", v.CommunityAccounts)
	t.AddRowf("recovered end users", v.RecoveredEndUsers)
	if v.CommunityAccounts > 0 {
		t.AddRowf("hidden-user multiplier",
			fmt.Sprintf("%.1fx", float64(v.RecoveredEndUsers)/float64(v.CommunityAccounts)))
	}
	return t, nil
}

// ServiceTable reports per-modality queueing outcomes from the shared run.
func ServiceTable(seed uint64, sc Scale) (*report.Table, error) {
	res, err := standard(seed, sc)
	if err != nil {
		return nil, err
	}
	rows := core.ServiceReport(res.Central, classifyStandard(res))
	t := report.NewTable("Service quality by modality",
		"modality", "jobs", "mean wait (h)", "median wait (h)", "P95 wait (h)", "walltime-killed")
	for _, r := range rows {
		t.AddRowf(string(r.Modality), r.Jobs, r.MeanWaitS/3600, r.MedianWaitS/3600,
			r.P95WaitS/3600, report.Percent(r.KilledFrac))
	}
	return t, nil
}

// FieldTable reports usage by field of science from the shared run.
func FieldTable(seed uint64, sc Scale) (*report.Table, error) {
	res, err := standard(seed, sc)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Usage by field of science", "field", "jobs", "NUs", "projects")
	for _, r := range core.FieldReport(res.Central) {
		t.AddRowf(r.Field, r.Jobs, r.NUs, r.Projects)
	}
	return t, nil
}

// CampaignTable grades campaign-level recovery (did the framework
// reconstruct the sweeps and workflow instances, not just label jobs?).
func CampaignTable(seed uint64, sc Scale) (*report.Table, error) {
	res, err := standard(seed, sc)
	if err != nil {
		return nil, err
	}
	stats := core.CampaignReport(res.Central, classifyStandard(res))
	t := report.NewTable("Campaign recovery (groups, not just jobs)",
		"modality", "true campaigns", "measured groups", "recovered", "fragmentation")
	for _, s := range stats {
		t.AddRowf(string(s.Modality), s.TrueCampaigns, s.MeasuredCampaigns,
			s.RecoveredCampaigns, fmt.Sprintf("%.2f", s.Fragmentation))
	}
	return t, nil
}

// OverlapTable reports how many users span multiple modalities.
func OverlapTable(seed uint64, sc Scale) (*report.Table, error) {
	res, err := standard(seed, sc)
	if err != nil {
		return nil, err
	}
	ov := core.MeasureOverlap(res.Central, classifyStandard(res))
	t := report.NewTable("Users by number of modalities engaged",
		"modalities used", "users")
	maxK := 0
	for k := range ov.ByModalityCount {
		if k > maxK {
			maxK = k
		}
	}
	for k := 1; k <= maxK; k++ {
		if n := ov.ByModalityCount[k]; n > 0 {
			t.AddRowf(k, n)
		}
	}
	return t, nil
}

// MaintenanceTable quantifies what preventive-maintenance cadence costs in
// delivered NUs and queueing: the operational trade every resource
// provider makes.
func MaintenanceTable(seed uint64, sc Scale) (*report.Table, error) {
	t := report.NewTable("Maintenance cadence ablation",
		"cadence", "jobs finished", "NUs delivered", "mean wait (h)", "preempted jobs")
	type variant struct {
		label string
		every des.Time
		hours des.Time
	}
	variants := []variant{
		{"none", 0, 0},
		{"weekly 8h", 7 * des.Day, 8 * des.Hour},
		{"every 3d 8h", 3 * des.Day, 8 * des.Hour},
	}
	for _, v := range variants {
		cfg := scenario.New(seed, append(StandardOptions(sc),
			scenario.WithMaintenance(v.every, v.hours),
		)...)
		res, err := scenario.Run(cfg)
		if err != nil {
			return nil, err
		}
		var wait metrics.Summary
		preempted := 0
		for _, r := range res.Central.Jobs() {
			wait.Add(r.WaitSeconds() / 3600)
			if r.Preemptions > 0 {
				preempted++
			}
		}
		t.AddRowf(v.label, res.Central.Len(), res.Central.TotalNUs(),
			wait.Mean(), preempted)
	}
	return t, nil
}

// usageSample collects per-user NU totals for concentration stats.
func usageSample(res *scenario.Result) *metrics.Sample {
	per := map[job.Sym]float64{}
	for _, r := range res.Central.Jobs() {
		per[r.User] += r.NUs
	}
	var s metrics.Sample
	for _, v := range per {
		s.Add(v)
	}
	return &s
}

// ConcentrationTable reports usage concentration (Gini, top-k shares).
func ConcentrationTable(seed uint64, sc Scale) (*report.Table, error) {
	res, err := standard(seed, sc)
	if err != nil {
		return nil, err
	}
	s := usageSample(res)
	t := report.NewTable("Usage concentration across accounts", "metric", "value")
	t.AddRowf("accounts with usage", s.N())
	t.AddRowf("Gini coefficient", fmt.Sprintf("%.3f", s.Gini()))
	t.AddRowf("median NUs per account", s.Median())
	t.AddRowf("P95 NUs per account", s.Percentile(95))
	return t, nil
}
