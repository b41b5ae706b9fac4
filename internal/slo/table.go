// Telemetry binding and end-of-run conformance reporting for the SLO
// evaluator.
package slo

import (
	"github.com/tgsim/tgmod/internal/metrics"
	"github.com/tgsim/tgmod/internal/report"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// Bind surfaces the evaluator as tg_slo_* telemetry families:
//
//	tg_slo_target{objective}              gauge, the configured target
//	tg_slo_events_total{objective,result} counter, good/bad observations
//	tg_slo_compliance{objective}          gauge, lifetime good fraction
//	tg_slo_burn_rate{objective,window}    gauge, current burn per window
//
// Every series is created eagerly — including zero-valued ones for
// objectives that never fire — so the exposition's series set is a
// function of configuration, not workload, and same-config runs stay
// byte-comparable. Compliance and burn rates are callback gauges read at
// exposition time from the simulation goroutine. Nil-safe on both sides.
func (e *Evaluator) Bind(reg *telemetry.Registry) {
	if e == nil || reg == nil {
		return
	}
	target := reg.Gauge("tg_slo_target",
		"Configured good-fraction target per SLO objective.", "objective")
	events := reg.Counter("tg_slo_events_total",
		"SLO observations by objective and result.", "objective", "result")
	compliance := reg.Gauge("tg_slo_compliance",
		"Lifetime good fraction per SLO objective.", "objective")
	burn := reg.Gauge("tg_slo_burn_rate",
		"Error-budget burn rate per SLO objective and trailing virtual-time window.",
		"objective", "window")
	for _, st := range e.states {
		st := st
		target.With(st.obj.Name).Set(st.obj.Target)
		st.goodC = events.With(st.obj.Name, "good")
		st.badC = events.With(st.obj.Name, "bad")
		compliance.Func(st.compliance, st.obj.Name)
		for i, w := range metrics.TrailingWindows {
			burn.Func(func() float64 { return st.burnRate(i, e.now()) },
				st.obj.Name, w.Label)
		}
	}
}

// Table renders the end-of-run conformance report: one row per objective
// with lifetime compliance against target and the worst burn rate each
// window saw during the run.
func (e *Evaluator) Table() *report.Table {
	t := report.NewTable("SLO conformance",
		"objective", "modality", "threshold s", "target", "events", "bad",
		"compliance", "met", "peak burn 1h", "peak burn 6h", "peak burn 24h")
	if e == nil {
		return t
	}
	for _, s := range e.states {
		met := "yes"
		if !s.met() {
			met = "NO"
		}
		t.AddRowf(s.obj.Name, string(s.obj.Modality), s.obj.WaitThreshold,
			report.Percent(s.obj.Target), s.good+s.bad, s.bad,
			report.Percent(s.compliance()), met,
			s.peak[0], s.peak[1], s.peak[2])
	}
	return t
}
