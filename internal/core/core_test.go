package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/job"
)

func TestTaxonomyCoversAllModalities(t *testing.T) {
	tax := Taxonomy()
	if len(tax) != len(job.AllModalities) {
		t.Fatalf("taxonomy has %d entries, want %d", len(tax), len(job.AllModalities))
	}
	seen := map[job.Modality]bool{}
	for _, info := range tax {
		if seen[info.ID] {
			t.Errorf("duplicate taxonomy entry %q", info.ID)
		}
		seen[info.ID] = true
		if info.Title == "" || info.Objective == "" {
			t.Errorf("taxonomy entry %q missing title/objective", info.ID)
		}
	}
	for _, m := range job.AllModalities {
		if !seen[m] {
			t.Errorf("modality %q missing from taxonomy", m)
		}
	}
}

func TestSourceString(t *testing.T) {
	if SourceAccounting.String() != "accounting" ||
		SourceAttribute.String() != "attribute" ||
		SourceInference.String() != "inference" ||
		Source(9).String() != "unknown" {
		t.Error("source names wrong")
	}
}

// testSyms is the table the package's test records index.
var testSyms = job.NewSymbols()

// sym interns s into testSyms.
func sym(s string) job.Sym { return testSyms.Intern(s) }

// central builds a database from records with sequenced packets.
func central(t *testing.T, jobs []accounting.JobRecord, attrs []accounting.GatewayAttrRecord,
	transfers []accounting.TransferRecord) *accounting.Central {
	t.Helper()
	c := accounting.NewCentral(testSyms)
	err := c.Ingest(&accounting.Packet{Site: "s", Seq: 1, Jobs: jobs, Syms: testSyms,
		GatewayAttrs: attrs, Transfers: transfers})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func rec(id int64, mutate func(*accounting.JobRecord)) accounting.JobRecord {
	r := accounting.JobRecord{
		JobID: id, Name: sym("job"), User: sym("u1"), Project: sym("p"), Site: sym("s"),
		Machine: sym("m"), Cores: 16, SubmitTime: float64(id) * 10000,
		StartTime: float64(id)*10000 + 100, EndTime: float64(id)*10000 + 1100,
		WallSeconds: 1000, CoreSeconds: 16000, NUs: 10, QOS: sym("normal"),
		ExitStatus: sym("completed"),
	}
	if mutate != nil {
		mutate(&r)
	}
	return r
}

func classify(t *testing.T, c *accounting.Central) []Result {
	t.Helper()
	return NewClassifier(Config{LargestCores: 1024}).Classify(c)
}

func TestDirectEvidencePrecedence(t *testing.T) {
	jobs := []accounting.JobRecord{
		rec(1, func(r *accounting.JobRecord) { r.QOS = sym("urgent") }),
		rec(2, func(r *accounting.JobRecord) { r.QOS = sym("interactive") }),
		rec(3, func(r *accounting.JobRecord) { r.GatewayID = sym("nanohub"); r.SubmitVia = sym("gateway") }),
		rec(4, func(r *accounting.JobRecord) { r.BrokerJobID = sym("b-4") }),
		rec(5, func(r *accounting.JobRecord) { r.WorkflowID = sym("wf-1") }),
		rec(6, func(r *accounting.JobRecord) { r.EnsembleID = sym("ens-1") }),
		rec(7, nil), // plain capacity batch
		rec(8, func(r *accounting.JobRecord) { r.Cores = 1024 }), // capability
		rec(9, func(r *accounting.JobRecord) { r.CoAllocID = sym("co-1") }),
	}
	c := central(t, jobs, nil, nil)
	res := classify(t, c)
	want := []job.Modality{
		job.ModUrgent, job.ModInteractive, job.ModGateway, job.ModMetascheduled,
		job.ModWorkflow, job.ModEnsemble, job.ModBatchCapacity,
		job.ModBatchCapability, job.ModMetascheduled,
	}
	for i, w := range want {
		if res[i].Rule.Modality() != w {
			t.Errorf("job %d classified %q, want %q", i+1, res[i].Rule.Modality(), w)
		}
	}
	// Attribute-tier evidence recorded as such.
	if res[2].Rule.Source() != SourceAttribute || res[0].Rule.Source() != SourceAccounting {
		t.Errorf("sources wrong: %+v %+v", res[2], res[0])
	}
	if res[4].CampaignID(testSyms) != "wf-1" || res[5].CampaignID(testSyms) != "ens-1" {
		t.Error("campaign IDs not carried")
	}
}

func TestGatewayByAttrRecordOnly(t *testing.T) {
	// Job carries no gateway fields, but an attribute record references it.
	jobs := []accounting.JobRecord{rec(1, nil)}
	attrs := []accounting.GatewayAttrRecord{{GatewayID: sym("g"), GatewayUser: sym("alice"), JobID: 1}}
	res := classify(t, central(t, jobs, attrs, nil))
	if res[0].Rule.Modality() != job.ModGateway {
		t.Errorf("classified %q, want gateway (via attribute record)", res[0].Rule.Modality())
	}
}

func TestDataCentricByTransfers(t *testing.T) {
	jobs := []accounting.JobRecord{rec(1, nil), rec(2, nil)}
	transfers := []accounting.TransferRecord{
		{TransferID: 1, JobID: 1, Bytes: 6 << 30}, // 6 GB staged for job 1
		{TransferID: 2, JobID: 2, Bytes: 1 << 20}, // 1 MB for job 2
	}
	res := classify(t, central(t, jobs, nil, transfers))
	if res[0].Rule.Modality() != job.ModDataCentric {
		t.Errorf("big-staging job classified %q, want data-centric", res[0].Rule.Modality())
	}
	if res[1].Rule.Modality() != job.ModBatchCapacity {
		t.Errorf("small-staging job classified %q, want batch-capacity", res[1].Rule.Modality())
	}
}

func TestEnsembleInference(t *testing.T) {
	// 8 identical jobs submitted minutes apart by one user, untagged.
	var jobs []accounting.JobRecord
	for i := 0; i < 8; i++ {
		i := i
		jobs = append(jobs, rec(int64(i+1), func(r *accounting.JobRecord) {
			r.Name = sym("sweep")
			r.Cores = 4
			r.SubmitTime = float64(i) * 60
			r.StartTime = r.SubmitTime + 10
			r.EndTime = r.StartTime + 500
		}))
	}
	// Plus one unrelated job by another user.
	jobs = append(jobs, rec(100, func(r *accounting.JobRecord) { r.User = sym("other") }))
	res := classify(t, central(t, jobs, nil, nil))
	for i := 0; i < 8; i++ {
		if res[i].Rule.Modality() != job.ModEnsemble {
			t.Errorf("sweep member %d classified %q, want ensemble", i, res[i].Rule.Modality())
		}
		if res[i].Rule.Source() != SourceInference {
			t.Errorf("sweep member %d source %v, want inference", i, res[i].Rule.Source())
		}
		if res[i].CampaignID(testSyms) != res[0].CampaignID(testSyms) {
			t.Error("sweep members not grouped into one campaign")
		}
	}
	if res[8].Rule.Modality() == job.ModEnsemble {
		t.Error("unrelated job swept into ensemble")
	}
}

func TestEnsembleInferenceRespectsWindow(t *testing.T) {
	// Same name/cores but a day apart: not a burst.
	var jobs []accounting.JobRecord
	for i := 0; i < 6; i++ {
		i := i
		jobs = append(jobs, rec(int64(i+1), func(r *accounting.JobRecord) {
			r.Name = sym("spread")
			r.Cores = 4
			r.SubmitTime = float64(i) * 86400
		}))
	}
	res := classify(t, central(t, jobs, nil, nil))
	for i := range jobs {
		if res[i].Rule.Modality() == job.ModEnsemble {
			t.Errorf("day-spread job %d inferred as ensemble", i)
		}
	}
}

func TestChainInference(t *testing.T) {
	// 4 jobs where each is submitted 60 s after the previous ends, with
	// different names (so ensemble inference cannot claim them).
	var jobs []accounting.JobRecord
	tm := 0.0
	for i := 0; i < 4; i++ {
		i := i
		jobs = append(jobs, rec(int64(i+1), func(r *accounting.JobRecord) {
			r.Name = sym(fmt.Sprintf("stage-%d", i))
			r.SubmitTime = tm
			r.StartTime = tm + 30
			r.EndTime = tm + 30 + 600
		}))
		tm = tm + 30 + 600 + 60 // next submitted 60s after this ends
	}
	res := classify(t, central(t, jobs, nil, nil))
	for i := range jobs {
		if res[i].Rule.Modality() != job.ModWorkflow {
			t.Errorf("chain link %d classified %q, want workflow", i, res[i].Rule.Modality())
		}
		if res[i].Rule.Source() != SourceInference {
			t.Errorf("chain link %d source %v, want inference", i, res[i].Rule.Source())
		}
	}
}

func TestChainInferenceNeedsTightGaps(t *testing.T) {
	var jobs []accounting.JobRecord
	tm := 0.0
	for i := 0; i < 4; i++ {
		i := i
		jobs = append(jobs, rec(int64(i+1), func(r *accounting.JobRecord) {
			r.Name = sym(fmt.Sprintf("stage-%d", i))
			r.SubmitTime = tm
			r.StartTime = tm + 30
			r.EndTime = tm + 630
		}))
		tm += 630 + 7200 // two hours of thinking between stages: human, not engine
	}
	res := classify(t, central(t, jobs, nil, nil))
	for i := range jobs {
		if res[i].Rule.Modality() == job.ModWorkflow {
			t.Errorf("slow chain link %d inferred as workflow", i)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.EnsembleWindow != 3600 || cfg.ChainSlack != 300 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	// Explicit values survive.
	cfg2 := Config{ChainSlack: 10}.WithDefaults()
	if cfg2.ChainSlack != 10 {
		t.Error("explicit value overwritten")
	}
}

func TestBuildReport(t *testing.T) {
	jobs := []accounting.JobRecord{
		rec(1, func(r *accounting.JobRecord) { r.QOS = sym("urgent"); r.NUs = 5 }),
		rec(2, func(r *accounting.JobRecord) { r.GatewayID = sym("g"); r.User = sym("community"); r.NUs = 1 }),
		rec(3, func(r *accounting.JobRecord) { r.GatewayID = sym("g"); r.User = sym("community"); r.NUs = 1 }),
		rec(4, func(r *accounting.JobRecord) { r.NUs = 100 }),
	}
	attrs := []accounting.GatewayAttrRecord{
		{GatewayID: sym("g"), GatewayUser: sym("alice"), JobID: 2},
		{GatewayID: sym("g"), GatewayUser: sym("bob"), JobID: 3},
	}
	c := central(t, jobs, attrs, nil)
	res := classify(t, c)
	rep := BuildReport(c, res)
	if rep.TotalNUs != 107 {
		t.Errorf("TotalNUs = %v, want 107", rep.TotalNUs)
	}
	gw := rep.Row(job.ModGateway)
	if gw.Jobs != 2 || gw.NUs != 2 {
		t.Errorf("gateway row = %+v", gw)
	}
	// One community account, two real people.
	if gw.AccountUsers != 1 || gw.EndUsers != 2 {
		t.Errorf("gateway users = %d accounts / %d people, want 1/2",
			gw.AccountUsers, gw.EndUsers)
	}
	if rep.Row(job.ModUrgent).NUs != 5 {
		t.Errorf("urgent row = %+v", rep.Row(job.ModUrgent))
	}
	if rep.Row("never-seen").Jobs != 0 {
		t.Error("missing row not zero")
	}
	if rep.BySource[SourceAccounting] == 0 || rep.BySource[SourceAttribute] == 0 {
		t.Errorf("BySource = %v", rep.BySource)
	}
	// Rows come out in taxonomy order.
	if len(rep.Rows) < 2 || rep.Rows[0].Modality == job.ModGateway {
		ordered := true
		last := -1
		for _, row := range rep.Rows {
			pos := -1
			for i, info := range Taxonomy() {
				if info.ID == row.Modality {
					pos = i
				}
			}
			if pos < last {
				ordered = false
			}
			last = pos
		}
		if !ordered {
			t.Error("rows not in taxonomy order")
		}
	}
}

func TestMechanismReport(t *testing.T) {
	jobs := []accounting.JobRecord{
		rec(1, func(r *accounting.JobRecord) { r.SubmitVia = sym("login"); r.NUs = 10 }),
		rec(2, func(r *accounting.JobRecord) { r.SubmitVia = sym("login"); r.NUs = 20; r.User = sym("u2") }),
		rec(3, func(r *accounting.JobRecord) { r.SubmitVia = sym("gateway"); r.NUs = 1 }),
		rec(4, func(r *accounting.JobRecord) { r.SubmitVia = sym("") }),
	}
	rows := MechanismReport(central(t, jobs, nil, nil))
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	// Sorted: gateway, login, unknown.
	if rows[0].Mechanism != "gateway" || rows[1].Mechanism != "login" || rows[2].Mechanism != "unknown" {
		t.Errorf("mechanism order: %+v", rows)
	}
	if rows[1].Jobs != 2 || rows[1].NUs != 30 || rows[1].AccountUsers != 2 {
		t.Errorf("login row = %+v", rows[1])
	}
}

func TestValidatePerfectOnDirectEvidence(t *testing.T) {
	jobs := []accounting.JobRecord{
		rec(1, func(r *accounting.JobRecord) { r.QOS = sym("urgent"); r.TruthModality = sym("urgent") }),
		rec(2, func(r *accounting.JobRecord) { r.GatewayID = sym("g"); r.TruthModality = sym("gateway") }),
		rec(3, func(r *accounting.JobRecord) { r.TruthModality = sym("batch-capacity") }),
	}
	c := central(t, jobs, nil, nil)
	conf := Validate(c, classify(t, c))
	if conf.Accuracy() != 1 {
		t.Errorf("accuracy = %v, want 1 with full direct evidence", conf.Accuracy())
	}
	if conf.Total() != 3 {
		t.Errorf("Total = %d", conf.Total())
	}
}

func TestMeasureGatewayVisibility(t *testing.T) {
	jobs := []accounting.JobRecord{
		rec(1, func(r *accounting.JobRecord) { r.GatewayID = sym("g1"); r.User = sym("c1") }),
		rec(2, func(r *accounting.JobRecord) { r.GatewayID = sym("g1"); r.User = sym("c1") }),
		rec(3, func(r *accounting.JobRecord) { r.GatewayID = sym("g2"); r.User = sym("c2") }),
		rec(4, nil), // not a gateway job
	}
	attrs := []accounting.GatewayAttrRecord{
		{GatewayID: sym("g1"), GatewayUser: sym("alice"), JobID: 1},
		{GatewayID: sym("g1"), GatewayUser: sym("bob"), JobID: 2},
	}
	v := MeasureGatewayVisibility(central(t, jobs, attrs, nil))
	if v.GatewayJobs != 3 || v.AttributedJobs != 2 {
		t.Errorf("jobs = %d attributed = %d", v.GatewayJobs, v.AttributedJobs)
	}
	if v.CommunityAccounts != 2 || v.RecoveredEndUsers != 2 {
		t.Errorf("accounts = %d people = %d", v.CommunityAccounts, v.RecoveredEndUsers)
	}
}

// TestClassifierNeverReadsTruth statically enforces the measurement/truth
// separation: classify.go must not mention the TruthModality field.
func TestClassifierNeverReadsTruth(t *testing.T) {
	src, err := os.ReadFile("classify.go")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(src), "TruthModality") {
		t.Error("classify.go references TruthModality; classifiers must not see ground truth")
	}
}

func TestFieldReport(t *testing.T) {
	jobs := []accounting.JobRecord{
		rec(1, func(r *accounting.JobRecord) { r.ScienceField = sym("physics"); r.NUs = 100; r.Project = sym("p1") }),
		rec(2, func(r *accounting.JobRecord) { r.ScienceField = sym("physics"); r.NUs = 50; r.Project = sym("p2") }),
		rec(3, func(r *accounting.JobRecord) { r.ScienceField = sym("chemistry"); r.NUs = 70; r.Project = sym("p3") }),
		rec(4, func(r *accounting.JobRecord) { r.ScienceField = sym(""); r.NUs = 1; r.Project = sym("p4") }),
	}
	rows := FieldReport(central(t, jobs, nil, nil))
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// Sorted by NUs descending: physics (150), chemistry (70), unspecified (1).
	if rows[0].Field != "physics" || rows[0].NUs != 150 || rows[0].Jobs != 2 || rows[0].Projects != 2 {
		t.Errorf("row 0 = %+v", rows[0])
	}
	if rows[1].Field != "chemistry" || rows[2].Field != "unspecified" {
		t.Errorf("order wrong: %+v", rows)
	}
}

func TestServiceReport(t *testing.T) {
	jobs := []accounting.JobRecord{
		rec(1, func(r *accounting.JobRecord) {
			r.QOS = sym("urgent")
			r.SubmitTime, r.StartTime = 0, 5 // 5s wait
		}),
		rec(2, func(r *accounting.JobRecord) {
			r.SubmitTime, r.StartTime = 0, 1000
			r.ExitStatus = sym("killed")
		}),
		rec(3, func(r *accounting.JobRecord) {
			r.SubmitTime, r.StartTime = 0, 3000
		}),
	}
	c := central(t, jobs, nil, nil)
	rows := ServiceReport(c, classify(t, c))
	byMod := map[job.Modality]ServiceRow{}
	for _, r := range rows {
		byMod[r.Modality] = r
	}
	u := byMod[job.ModUrgent]
	if u.Jobs != 1 || u.MeanWaitS != 5 || u.KilledFrac != 0 {
		t.Errorf("urgent row = %+v", u)
	}
	b := byMod[job.ModBatchCapacity]
	if b.Jobs != 2 || b.MeanWaitS != 2000 || b.KilledFrac != 0.5 {
		t.Errorf("batch row = %+v", b)
	}
	// Rows come out in taxonomy order and only for seen modalities.
	if len(rows) != 2 {
		t.Errorf("rows = %d, want 2", len(rows))
	}
}

func TestMeasureOverlap(t *testing.T) {
	jobs := []accounting.JobRecord{
		rec(1, func(r *accounting.JobRecord) { r.User = sym("a"); r.QOS = sym("urgent") }),
		rec(2, func(r *accounting.JobRecord) { r.User = sym("a") }), // batch-capacity
		rec(3, func(r *accounting.JobRecord) { r.User = sym("b") }), // batch only
		rec(4, func(r *accounting.JobRecord) { r.User = sym("comm"); r.GatewayID = sym("g") }),
	}
	attrs := []accounting.GatewayAttrRecord{{GatewayID: sym("g"), GatewayUser: sym("carol"), JobID: 4}}
	c := central(t, jobs, attrs, nil)
	ov := MeasureOverlap(c, classify(t, c))
	// a: 2 modalities; b: 1; g/carol: 1.
	if ov.ByModalityCount[1] != 2 || ov.ByModalityCount[2] != 1 {
		t.Errorf("ByModalityCount = %v", ov.ByModalityCount)
	}
	if ov.Pairs[job.ModUrgent][job.ModBatchCapacity] != 1 {
		t.Errorf("urgent∩batch = %d, want 1", ov.Pairs[job.ModUrgent][job.ModBatchCapacity])
	}
	// Diagonal = per-modality user totals.
	if ov.Pairs[job.ModBatchCapacity][job.ModBatchCapacity] != 2 {
		t.Errorf("batch total = %d, want 2", ov.Pairs[job.ModBatchCapacity][job.ModBatchCapacity])
	}
	if ov.Pairs[job.ModGateway][job.ModGateway] != 1 {
		t.Errorf("gateway total = %d, want 1", ov.Pairs[job.ModGateway][job.ModGateway])
	}
}

func TestEvidenceTags(t *testing.T) {
	jobs := []accounting.JobRecord{
		rec(1, func(r *accounting.JobRecord) { r.QOS = sym("urgent") }),
		rec(2, func(r *accounting.JobRecord) { r.QOS = sym("interactive") }),
		rec(3, func(r *accounting.JobRecord) { r.GatewayID = sym("nanohub") }),
		rec(4, func(r *accounting.JobRecord) { r.SubmitVia = sym("gateway") }),
		rec(5, func(r *accounting.JobRecord) { r.CoAllocID = sym("co-1") }),
		rec(6, func(r *accounting.JobRecord) { r.BrokerJobID = sym("b-1") }),
		rec(7, func(r *accounting.JobRecord) { r.SubmitVia = sym("metasched") }),
		rec(8, func(r *accounting.JobRecord) { r.WorkflowID = sym("wf-1") }),
		rec(9, func(r *accounting.JobRecord) { r.EnsembleID = sym("ens-1") }),
		rec(10, nil),
		rec(11, func(r *accounting.JobRecord) { r.Cores = 1024 }),
	}
	attrs := []accounting.GatewayAttrRecord{{GatewayID: sym("g"), GatewayUser: sym("alice"), JobID: 10}}
	res := classify(t, central(t, jobs, attrs, nil))
	want := []Rule{
		RuleQOSUrgent, RuleQOSInteractive, RuleGatewayID, RuleSubmitViaGateway,
		RuleCoAllocID, RuleBrokerID, RuleSubmitViaMetasched, RuleWorkflowID, RuleEnsembleID,
		RuleGatewayUserRec, RuleCapabilitySize,
	}
	for i, w := range want {
		if res[i].Rule != w {
			t.Errorf("job %d evidence %q, want %q", i+1, res[i].Rule, w)
		}
	}
}

func TestEvidenceInferenceAndDefault(t *testing.T) {
	// A burst of 5 identical submissions close together → infer:burst;
	// one straggler far outside the window → acct:default.
	var jobs []accounting.JobRecord
	for i := 0; i < 5; i++ {
		i := i
		jobs = append(jobs, rec(int64(i+1), func(r *accounting.JobRecord) {
			r.SubmitTime = float64(i) * 60
			r.StartTime = r.SubmitTime + 10
			r.EndTime = r.StartTime + 100
		}))
	}
	jobs = append(jobs, rec(6, func(r *accounting.JobRecord) {
		r.Name = sym("other")
		r.SubmitTime = 1e7
		r.StartTime = r.SubmitTime + 10
		r.EndTime = r.StartTime + 100
	}))
	res := classify(t, central(t, jobs, nil, nil))
	for i := 0; i < 5; i++ {
		if res[i].Rule != RuleBurst {
			t.Errorf("burst job %d evidence %q, want %q", i+1, res[i].Rule, RuleBurst)
		}
	}
	if res[5].Rule != RuleDefaultCapacity {
		t.Errorf("straggler evidence %q, want %q", res[5].Rule, RuleDefaultCapacity)
	}
}
