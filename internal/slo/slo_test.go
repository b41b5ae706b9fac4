package slo

import (
	"math"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/metrics"
	"github.com/tgsim/tgmod/internal/telemetry"
)

func TestObjectiveValidation(t *testing.T) {
	bad := []Objective{
		{Name: "", Modality: job.ModUrgent, WaitThreshold: 60, Target: 0.9},
		{Name: "x", Modality: "", WaitThreshold: 60, Target: 0.9},
		{Name: "x", Modality: job.ModUrgent, WaitThreshold: -1, Target: 0.9},
		{Name: "x", Modality: job.ModUrgent, WaitThreshold: 60, Target: 0},
		{Name: "x", Modality: job.ModUrgent, WaitThreshold: 60, Target: 1},
	}
	for i, obj := range bad {
		if _, err := New(obj); err == nil {
			t.Errorf("objective %d: expected validation error", i)
		}
	}
	if _, err := New(
		Objective{Name: "a", Modality: job.ModUrgent, WaitThreshold: 60, Target: 0.9},
		Objective{Name: "a", Modality: job.ModGateway, WaitThreshold: 60, Target: 0.9},
	); err == nil {
		t.Error("expected duplicate-name error")
	}
	if _, err := New(DefaultObjectives()...); err != nil {
		t.Errorf("default objectives must validate: %v", err)
	}
}

func TestComplianceAndMet(t *testing.T) {
	e, err := New(Objective{Name: "u", Modality: job.ModUrgent, WaitThreshold: 60, Target: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if !e.MetAll() {
		t.Error("unchallenged objective must count as met")
	}
	// 3 good, 1 bad → 75% exactly meets a 0.75 target.
	e.ObserveStart(100, job.ModUrgent, 10)
	e.ObserveStart(200, job.ModUrgent, 60) // at threshold: good
	e.ObserveStart(300, job.ModUrgent, 61) // over: bad
	e.ObserveStart(400, job.ModUrgent, 0)
	if got := e.states[0].compliance(); got != 0.75 {
		t.Errorf("compliance = %v, want 0.75", got)
	}
	if !e.MetAll() {
		t.Error("75% compliance must meet a 0.75 target")
	}
	e.ObserveReject(500, job.ModUrgent)
	if e.MetAll() {
		t.Error("3/5 good must miss a 0.75 target")
	}
	if f := e.Failed(); len(f) != 1 || f[0] != "u" {
		t.Errorf("Failed() = %v, want [u]", f)
	}
	// Non-matching modalities are ignored.
	e.ObserveStart(600, job.ModBatchCapacity, 1e9)
	if n := e.states[0].good + e.states[0].bad; n != 5 {
		t.Errorf("events = %d, want 5", n)
	}
}

func TestBurnRateWindows(t *testing.T) {
	e, err := New(Objective{Name: "u", Modality: job.ModUrgent, WaitThreshold: 60, Target: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	st := e.states[0]
	// All-bad traffic burns at 1/(1-0.9) = 10× in every window.
	for i := 0; i < 5; i++ {
		e.ObserveStart(des.Time(i*30), job.ModUrgent, 1e6)
	}
	for i, w := range metrics.TrailingWindows {
		if br := st.burnRate(i, 150); math.Abs(br-10) > 1e-9 {
			t.Errorf("window %s: burn = %v, want 10", w.Label, br)
		}
		if math.Abs(st.peak[i]-10) > 1e-9 {
			t.Errorf("window %s: peak = %v, want 10", w.Label, st.peak[i])
		}
	}
	// An hour of good traffic later, the 1h window has recovered (bad
	// events expired) while 6h/24h still carry the burn.
	base := des.Time(2 * 3600)
	for i := 0; i < 20; i++ {
		e.ObserveStart(base+des.Time(i*60), job.ModUrgent, 0)
	}
	now := base + 20*60
	if br := st.burnRate(0, now); br != 0 {
		t.Errorf("1h window: burn = %v, want 0 after recovery", br)
	}
	if br := st.burnRate(1, now); br <= 0 {
		t.Errorf("6h window: burn = %v, want > 0", br)
	}
	if br := st.burnRate(2, now); br <= 0 {
		t.Errorf("24h window: burn = %v, want > 0", br)
	}
}

func TestBindExposesFamilies(t *testing.T) {
	reg := telemetry.New()
	e, err := New(DefaultObjectives()...)
	if err != nil {
		t.Fatal(err)
	}
	now := des.Time(0)
	e.Now = func() des.Time { return now }
	e.Bind(reg)

	var sb strings.Builder
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	empty := sb.String()
	for _, fam := range []string{"tg_slo_target", "tg_slo_events_total", "tg_slo_compliance", "tg_slo_burn_rate"} {
		if !strings.Contains(empty, fam) {
			t.Errorf("exposition missing family %s", fam)
		}
	}
	// Series exist for every objective before any traffic (deterministic
	// series set), and compliance defaults to 1.
	if !strings.Contains(empty, `tg_slo_events_total{objective="urgent-immediate",result="bad"} 0`) {
		t.Error("bad-result series not pre-created at zero")
	}
	if !strings.Contains(empty, `tg_slo_compliance{objective="urgent-immediate"} 1`) {
		t.Error("unchallenged compliance should expose 1")
	}

	now = 100
	e.ObserveStart(now, job.ModUrgent, 10)
	e.ObserveStart(now, job.ModUrgent, 1e6)
	sb.Reset()
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`tg_slo_events_total{objective="urgent-immediate",result="good"} 1`,
		`tg_slo_events_total{objective="urgent-immediate",result="bad"} 1`,
		`tg_slo_compliance{objective="urgent-immediate"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The burn-rate gauge must be live and non-zero (its exact value is a
	// float quotient; pin the series, not the digits).
	burnLine := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `tg_slo_burn_rate{objective="urgent-immediate",window="1h"} `) {
			burnLine = line
		}
	}
	if burnLine == "" || strings.HasSuffix(burnLine, " 0") {
		t.Errorf("1h burn-rate series missing or zero: %q", burnLine)
	}
}

func TestConformanceTable(t *testing.T) {
	e, err := New(
		Objective{Name: "u", Modality: job.ModUrgent, WaitThreshold: 60, Target: 0.9},
		Objective{Name: "i", Modality: job.ModInteractive, WaitThreshold: 900, Target: 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	e.ObserveStart(10, job.ModUrgent, 1e6) // u: 0% < 90% → NO
	e.ObserveStart(10, job.ModInteractive, 5)
	tab := e.Table()
	if tab.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", tab.Rows())
	}
	if got := tab.Cell(0, 7); got != "NO" {
		t.Errorf("u met = %q, want NO", got)
	}
	if got := tab.Cell(1, 7); got != "yes" {
		t.Errorf("i met = %q, want yes", got)
	}
	out := tab.String()
	if !strings.Contains(out, "SLO conformance") {
		t.Error("table missing title")
	}
}

func TestNilEvaluatorSafe(t *testing.T) {
	var e *Evaluator
	e.ObserveStart(0, job.ModUrgent, 0)
	e.ObserveReject(0, job.ModUrgent)
	e.Bind(telemetry.New())
	if !e.MetAll() {
		t.Error("nil evaluator must report met")
	}
	if e.Failed() != nil {
		t.Error("nil evaluator must report no failures")
	}
	if e.Table() == nil {
		t.Error("nil evaluator must still render an empty table")
	}
}
