package stream

import (
	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// confidence is the heuristic confidence of each classifier rule. Direct
// accounting fields and deployed attributes are near-certain; behavioral
// inference and the size-based default split are progressively weaker.
// The values are heuristic weights for dashboards, not calibrated
// probabilities — drift against trailing ground truth (driftMonitor) is
// the calibrated signal.
var confidence = [core.NumRules]float64{
	core.RuleQOSUrgent:          0.99,
	core.RuleQOSInteractive:     0.99,
	core.RuleGatewayID:          0.97,
	core.RuleSubmitViaGateway:   0.97,
	core.RuleGatewayUserRec:     0.97,
	core.RuleCoAllocID:          0.97,
	core.RuleBrokerID:           0.97,
	core.RuleSubmitViaMetasched: 0.97,
	core.RuleWorkflowID:         0.97,
	core.RuleEnsembleID:         0.97,
	core.RuleStagedBytes:        0.90,
	core.RuleBurst:              0.75,
	core.RuleChain:              0.70,
	core.RuleCapabilitySize:     0.60,
	core.RuleDefaultCapacity:    0.55,
}

// online is the incremental classifier. It applies the batch classifier's
// direct-evidence rules and size split (core.EvidenceIndex.Direct and
// core.SizeSplit) and approximates the behavioral-inference pass between
// them with running burst/chain state instead of global sorts. The
// approximation is one-sided: the first records of a burst or chain
// classify as batch before the pattern is established and are never
// retroactively relabeled — that lag is real classifier error and shows up
// honestly in the drift windows.
type online struct {
	cfg core.Config

	// ev indexes attribute and transfer evidence as those records stream in.
	ev *core.EvidenceIndex

	// Burst state for ensemble inference: per (user, name, cores), the
	// submit time of the last undecided member and the current run length.
	// Keyed by Sym: the state is only looked up, never iterated.
	bursts map[burstKey]*burstState
	// Chain state for workflow inference: per user, the end time of the
	// last undecided job and the current link count.
	chains map[job.Sym]*chainState

	decided *telemetry.CounterVec
	// byRule caches decided's counter for each rule, filled on a rule's
	// first decision so that no series exists before its first count.
	byRule [core.NumRules]*telemetry.Counter
}

type burstKey struct {
	user, name job.Sym
	cores      int
}

type burstState struct {
	lastSubmit float64
	run        int
}

type chainState struct {
	lastEnd float64
	links   int
}

func newOnline(cfg core.Config) *online {
	return &online{
		cfg:    cfg.WithDefaults(),
		ev:     core.NewEvidenceIndex(),
		bursts: make(map[burstKey]*burstState),
		chains: make(map[job.Sym]*chainState),
	}
}

func (o *online) bind(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	o.decided = reg.Counter("tg_stream_classified_total",
		"Online classification decisions by modality and evidence tier.",
		"modality", "source")
}

// classify decides one job record online. It never reads the record's
// ground-truth fields; the measurement/truth separation the batch
// classifier enforces holds on the streaming path too (tested).
func (o *online) classify(r *accounting.JobRecord) core.Result {
	res := o.decide(r)
	if o.decided != nil {
		c := o.byRule[res.Rule]
		if c == nil {
			c = o.decided.With(string(res.Rule.Modality()), res.Rule.Source().String())
			o.byRule[res.Rule] = c
		}
		c.Inc()
	}
	return res
}

func (o *online) decide(r *accounting.JobRecord) core.Result {
	if res, ok := o.ev.Direct(r); ok {
		return res
	}

	// Tier 2: behavioral inference over running state. Records arrive in
	// completion order, not submission order, so gaps are measured as
	// magnitudes — close enough for burst detection, and the residual
	// error is exactly what the drift monitor measures.
	bk := burstKey{r.User, r.Name, r.Cores}
	bs := o.bursts[bk]
	if bs == nil {
		bs = &burstState{lastSubmit: r.SubmitTime, run: 1}
		o.bursts[bk] = bs
	} else {
		gap := r.SubmitTime - bs.lastSubmit
		if gap < 0 {
			gap = -gap
		}
		if gap <= o.cfg.EnsembleWindow {
			bs.run++
		} else {
			bs.run = 1
		}
		bs.lastSubmit = r.SubmitTime
	}
	if bs.run >= core.EnsembleMinJobs {
		return core.Result{JobID: r.JobID, Rule: core.RuleBurst}
	}

	cs := o.chains[r.User]
	if cs == nil {
		cs = &chainState{lastEnd: r.EndTime, links: 1}
		o.chains[r.User] = cs
	} else {
		gap := r.SubmitTime - cs.lastEnd
		if gap >= 0 && gap <= o.cfg.ChainSlack {
			cs.links++
		} else {
			cs.links = 1
		}
		cs.lastEnd = r.EndTime
	}
	if cs.links >= core.ChainMinLinks {
		return core.Result{JobID: r.JobID, Rule: core.RuleChain}
	}

	return core.SizeSplit(r, o.cfg.LargestCores)
}
