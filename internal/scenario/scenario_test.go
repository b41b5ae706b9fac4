package scenario

import (
	"errors"
	"testing"

	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/users"
	"github.com/tgsim/tgmod/internal/workload"
)

// smallConfig keeps integration tests fast: one week at reduced rates.
func smallConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Horizon = 7 * des.Day
	cfg.DrainTime = 3 * des.Day
	cfg.Users = users.Config{Projects: 40, UsersPerProjMu: 0.7, UsersPerProjSd: 0.6, ActivityAlpha: 1.5}
	cfg.Generators = []workload.Generator{
		&workload.BatchGen{JobsPerDay: 120, CapabilityFrac: 0.02, MedianRuntime: 3600},
		&workload.EnsembleGen{CampaignsPerDay: 4, JobsPerCampaign: 10, TagCoverage: 0.5, MedianRuntime: 900},
		&workload.WorkflowGen{CampaignsPerDay: 3, TaggedFrac: 0.5, Workers: 4, MedianTask: 600},
		&workload.GatewayGen{Gateway: "nanohub", RequestsPerDay: 80, EndUsers: 300, MedianRuntime: 300},
		&workload.GatewayGen{Gateway: "cipres", RequestsPerDay: 30, EndUsers: 100, MedianRuntime: 600},
		&workload.GatewayGen{Gateway: "climate-portal", RequestsPerDay: 10, EndUsers: 50, MedianRuntime: 1200},
		&workload.UrgentGen{EventsPerWeek: 3, MedianRuntime: 1800},
		&workload.InteractiveGen{SessionsPerDay: 12, MedianSession: 1200},
		&workload.DataCentricGen{JobsPerDay: 8, MedianInputGB: 20, MedianRuntime: 1800},
		&workload.MetaschedGen{JobsPerDay: 15, CoAllocFrac: 0.05, MedianRuntime: 1800},
	}
	return cfg
}

func TestTG9Topology(t *testing.T) {
	fed, err := TG9()
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Sites) != 9 {
		t.Errorf("sites = %d, want 9", len(fed.Sites))
	}
	if fed.TotalCores() < 100000 {
		t.Errorf("TotalCores = %d, want a petascale-era federation (>100k)", fed.TotalCores())
	}
	if fed.LargestMachine().ID != "ridge-xt" {
		t.Errorf("largest machine = %s, want ridge-xt", fed.LargestMachine().ID)
	}
	// At least one viz partition and one urgent-capable machine.
	viz, urgent := false, false
	for _, m := range fed.Machines() {
		if m.VizCores() > 0 {
			viz = true
		}
		if m.UrgentCapable {
			urgent = true
		}
	}
	if !viz || !urgent {
		t.Errorf("federation lacks viz (%v) or urgent (%v) capability", viz, urgent)
	}
}

func TestRunProducesCoherentAccounting(t *testing.T) {
	res, err := Run(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	jobs := res.Central.Jobs()
	if len(jobs) < 500 {
		t.Fatalf("only %d job records after a week; workload too thin", len(jobs))
	}
	if res.Finished != len(jobs) {
		t.Errorf("finished %d jobs but %d records (records must match terminal jobs)",
			res.Finished, len(jobs))
	}
	if res.Central.TotalNUs() <= 0 {
		t.Error("no NUs charged")
	}
	// Bank charges must equal accounting NUs (same charging event).
	if diff := res.Bank.TotalUsed() - res.Central.TotalNUs(); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("bank charged %v but accounting has %v NUs", res.Bank.TotalUsed(), res.Central.TotalNUs())
	}
	// Every record is well-formed.
	for _, r := range jobs {
		if r.Cores <= 0 || r.EndTime < r.StartTime || r.NUs < 0 {
			t.Fatalf("malformed record: %+v", r)
		}
		if r.ExitStatus != job.SymCompleted && r.ExitStatus != job.SymKilled {
			t.Fatalf("unexpected exit status %q", res.Central.Syms().Str(r.ExitStatus))
		}
	}
	// All ground-truth modalities appear in a mixed workload.
	seen := map[string]bool{}
	for _, r := range jobs {
		seen[res.Central.Syms().Str(r.TruthModality)] = true
	}
	for _, m := range job.AllModalities {
		if !seen[string(m)] {
			t.Errorf("modality %q generated no finished jobs", m)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Central.Len() != b.Central.Len() {
		t.Fatalf("job counts differ: %d vs %d", a.Central.Len(), b.Central.Len())
	}
	if a.Central.TotalNUs() != b.Central.TotalNUs() {
		t.Errorf("NUs differ: %v vs %v", a.Central.TotalNUs(), b.Central.TotalNUs())
	}
	ja, jb := a.Central.Jobs(), b.Central.Jobs()
	for i := range ja {
		if *ja[i] != *jb[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, ja[i], jb[i])
		}
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	a, err := Run(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Central.TotalNUs() == b.Central.TotalNUs() {
		t.Error("different seeds produced identical usage; randomness broken")
	}
}

func TestEndToEndClassification(t *testing.T) {
	res, err := Run(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	cl := core.NewClassifier(core.Config{LargestCores: res.LargestCores})
	results := cl.Classify(res.Central)
	conf := core.Validate(res.Central, results)
	acc := conf.Accuracy()
	if acc < 0.75 {
		t.Errorf("end-to-end classification accuracy = %v, want ≥ 0.75", acc)
	}
	// Directly instrumented modalities must be near-perfect.
	for _, m := range []job.Modality{job.ModUrgent, job.ModInteractive, job.ModGateway} {
		if r := conf.Recall(string(m)); r < 0.99 {
			t.Errorf("recall(%s) = %v, want ~1 (direct evidence)", m, r)
		}
	}
	// The usage report is internally consistent.
	rep := core.BuildReport(res.Central, results)
	totJobs := 0
	for _, row := range rep.Rows {
		totJobs += row.Jobs
	}
	if totJobs != res.Central.Len() {
		t.Errorf("report rows sum to %d jobs, central has %d", totJobs, res.Central.Len())
	}
	if rep.TotalNUs != res.Central.TotalNUs() {
		t.Errorf("report NUs %v != central %v", rep.TotalNUs, res.Central.TotalNUs())
	}
}

func TestGatewayVisibilityEndToEnd(t *testing.T) {
	res, err := Run(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	v := core.MeasureGatewayVisibility(res.Central)
	if v.GatewayJobs == 0 {
		t.Fatal("no gateway jobs")
	}
	// The headline asymmetry: a handful of community accounts hide a much
	// larger end-user population.
	if v.CommunityAccounts > 3 {
		t.Errorf("community accounts = %d, want ≤ 3", v.CommunityAccounts)
	}
	if v.RecoveredEndUsers < 10*v.CommunityAccounts {
		t.Errorf("recovered %d end users behind %d accounts; expected ≥10x",
			v.RecoveredEndUsers, v.CommunityAccounts)
	}
}

func TestRunValidation(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Horizon = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero horizon accepted")
	}
	cfg = smallConfig(1)
	cfg.Gateways = []GatewayConfig{{ID: "x", Machine: "no-such-machine"}}
	if _, err := Run(cfg); err == nil {
		t.Error("gateway with unknown machine accepted")
	}
	cfg = smallConfig(1)
	fed, err := TG9()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fed.Sites {
		s.ArchivePB = 0
	}
	cfg.Federation = fed
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("federation without an archive: %v, want ErrBadConfig", err)
	}
}

func TestMaintenanceWindows(t *testing.T) {
	cfg := smallConfig(9)
	cfg.MaintenanceEvery = 2 * des.Day
	cfg.MaintenanceLength = 4 * des.Hour
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Central.Len() < 300 {
		t.Fatalf("too few jobs with maintenance: %d", res.Central.Len())
	}
	// Usage still coherent: records match bank charges.
	if diff := res.Bank.TotalUsed() - res.Central.TotalNUs(); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("bank/accounting mismatch under maintenance: %v vs %v",
			res.Bank.TotalUsed(), res.Central.TotalNUs())
	}
	// Compared to the same seed without maintenance, utilization drops.
	base, err := Run(smallConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Central.TotalNUs() >= base.Central.TotalNUs() {
		t.Logf("note: maintenance run charged %v vs base %v NUs (queues may absorb outages)",
			res.Central.TotalNUs(), base.Central.TotalNUs())
	}
}
