package core

import (
	"reflect"
	"testing"
	"unsafe"

	"github.com/tgsim/tgmod/internal/job"
)

// TestResultIsPointerFree: a result is 16 bytes of plain numbers, so a
// results slice costs 16 B per job and the collector never scans it.
func TestResultIsPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(Result{}); n != 16 {
		t.Errorf("unsafe.Sizeof(Result{}) = %d, want 16", n)
	}
	rt := reflect.TypeOf(Result{})
	for i := range rt.NumField() {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Int64, reflect.Uint8, reflect.Uint32:
		default:
			t.Errorf("Result.%s is a %s, not a plain number", f.Name, f.Type)
		}
	}
}

// TestRuleTable pins every rule's modality, evidence tier and tag: the
// tags are the stable identifiers modreport -explain prints, 14 of them,
// with both submit-via rules printing one.
func TestRuleTable(t *testing.T) {
	want := []struct {
		rule Rule
		mod  job.Modality
		src  Source
		tag  string
	}{
		{RuleQOSUrgent, job.ModUrgent, SourceAccounting, "qos:urgent"},
		{RuleQOSInteractive, job.ModInteractive, SourceAccounting, "qos:interactive"},
		{RuleGatewayID, job.ModGateway, SourceAttribute, "attr:gateway-id"},
		{RuleSubmitViaGateway, job.ModGateway, SourceAttribute, "attr:submit-via"},
		{RuleGatewayUserRec, job.ModGateway, SourceAttribute, "attr:gateway-user-record"},
		{RuleCoAllocID, job.ModMetascheduled, SourceAttribute, "attr:coalloc-id"},
		{RuleBrokerID, job.ModMetascheduled, SourceAttribute, "attr:broker-id"},
		{RuleSubmitViaMetasched, job.ModMetascheduled, SourceAttribute, "attr:submit-via"},
		{RuleWorkflowID, job.ModWorkflow, SourceAttribute, "attr:workflow-id"},
		{RuleEnsembleID, job.ModEnsemble, SourceAttribute, "attr:ensemble-id"},
		{RuleStagedBytes, job.ModDataCentric, SourceAccounting, "acct:staged-bytes"},
		{RuleBurst, job.ModEnsemble, SourceInference, "infer:burst"},
		{RuleChain, job.ModWorkflow, SourceInference, "infer:chain"},
		{RuleCapabilitySize, job.ModBatchCapability, SourceAccounting, "acct:capability-size"},
		{RuleDefaultCapacity, job.ModBatchCapacity, SourceAccounting, "acct:default"},
	}
	if len(want) != int(NumRules)-1 {
		t.Fatalf("%d rules pinned, %d defined", len(want), NumRules-1)
	}
	tags := map[string]bool{}
	for _, w := range want {
		if m, s, tag := w.rule.Modality(), w.rule.Source(), w.rule.String(); m != w.mod || s != w.src || tag != w.tag {
			t.Errorf("rule %d decides (%s, %s, %s), want (%s, %s, %s)", w.rule, m, s, tag, w.mod, w.src, w.tag)
		}
		tags[w.tag] = true
	}
	if len(tags) != 14 {
		t.Errorf("%d distinct evidence tags, want 14", len(tags))
	}
	if RuleNone.Modality() != "" || RuleNone.String() != "" {
		t.Errorf("RuleNone decides (%q, %q), want nothing", RuleNone.Modality(), RuleNone.String())
	}
}
