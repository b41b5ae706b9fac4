package stream

import (
	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// Decision is one online classification: the modality the stream assigns
// a record the moment it arrives, with the evidence tag and a heuristic
// confidence for how reliable that tier of evidence is.
type Decision struct {
	Modality   job.Modality
	Source     core.Source
	Evidence   string
	Confidence float64
}

// Evidence-tier confidences. Direct accounting fields and deployed
// attributes are near-certain; behavioral inference and the size-based
// default split are progressively weaker. The values are heuristic
// weights for dashboards, not calibrated probabilities — drift against
// trailing ground truth (driftMonitor) is the calibrated signal.
const (
	confQOS       = 0.99
	confAttribute = 0.97
	confStaged    = 0.90
	confBurst     = 0.75
	confChain     = 0.70
	confSizeCap   = 0.60
	confSizeDef   = 0.55
)

// online is the incremental classifier. It applies the same direct-
// evidence rules as the batch classifier's first pass, then approximates
// the behavioral-inference pass with running burst/chain state instead of
// global sorts. The approximation is one-sided: the first records of a
// burst or chain classify as batch before the pattern is established and
// are never retroactively relabeled — that lag is real classifier error
// and shows up honestly in the drift windows.
type online struct {
	cfg core.Config

	// Evidence indexes, built as attribute/transfer records stream in.
	gwAttr map[int64]bool
	staged map[int64]int64

	// Burst state for ensemble inference: per (user, name, cores), the
	// submit time of the last undecided member and the current run length.
	// Keyed by Sym: the state is only looked up, never iterated.
	bursts map[burstKey]*burstState
	// Chain state for workflow inference: per user, the end time of the
	// last undecided job and the current link count.
	chains map[job.Sym]*chainState

	// Per-modality decision tallies: count and confidence sum, for the
	// mean-confidence column of the /modalities payload.
	count   map[job.Modality]int64
	confSum map[job.Modality]float64

	decided *telemetry.CounterVec
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
		cfg:     cfg.WithDefaults(),
		gwAttr:  make(map[int64]bool),
		staged:  make(map[int64]int64),
		bursts:  make(map[burstKey]*burstState),
		chains:  make(map[job.Sym]*chainState),
		count:   make(map[job.Modality]int64),
		confSum: make(map[job.Modality]float64),
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

// noteGatewayAttr indexes a gateway end-user attribute record.
func (o *online) noteGatewayAttr(r *accounting.GatewayAttrRecord) {
	o.gwAttr[r.JobID] = true
}

// noteTransfer accumulates staged bytes per referenced job.
func (o *online) noteTransfer(r *accounting.TransferRecord) {
	if r.JobID != 0 {
		o.staged[r.JobID] += r.Bytes
	}
}

// classify decides one job record online. It never reads the record's
// ground-truth fields; the measurement/truth separation the batch
// classifier enforces holds on the streaming path too (tested).
func (o *online) classify(r *accounting.JobRecord) Decision {
	d := o.decide(r)
	o.count[d.Modality]++
	o.confSum[d.Modality] += d.Confidence
	if o.decided != nil {
		o.decided.With(string(d.Modality), d.Source.String()).Inc()
	}
	return d
}

func (o *online) decide(r *accounting.JobRecord) Decision {
	// Tier 1: direct evidence, rule-for-rule the batch classifier's
	// first pass.
	switch {
	case r.QOS == job.SymUrgent:
		return Decision{job.ModUrgent, core.SourceAccounting, core.EvQOSUrgent, confQOS}
	case r.QOS == job.SymInteractive:
		return Decision{job.ModInteractive, core.SourceAccounting, core.EvQOSInteractive, confQOS}
	case r.GatewayID != job.SymNone:
		return Decision{job.ModGateway, core.SourceAttribute, core.EvGatewayID, confAttribute}
	case r.SubmitVia == job.SymGateway:
		return Decision{job.ModGateway, core.SourceAttribute, core.EvSubmitVia, confAttribute}
	case o.gwAttr[r.JobID]:
		return Decision{job.ModGateway, core.SourceAttribute, core.EvGatewayUserRec, confAttribute}
	case r.CoAllocID != job.SymNone:
		return Decision{job.ModMetascheduled, core.SourceAttribute, core.EvCoAllocID, confAttribute}
	case r.BrokerJobID != job.SymNone:
		return Decision{job.ModMetascheduled, core.SourceAttribute, core.EvBrokerID, confAttribute}
	case r.SubmitVia == job.SymMetasched:
		return Decision{job.ModMetascheduled, core.SourceAttribute, core.EvSubmitVia, confAttribute}
	case r.WorkflowID != job.SymNone:
		return Decision{job.ModWorkflow, core.SourceAttribute, core.EvWorkflowID, confAttribute}
	case r.EnsembleID != job.SymNone:
		return Decision{job.ModEnsemble, core.SourceAttribute, core.EvEnsembleID, confAttribute}
	case o.staged[r.JobID] >= o.cfg.DataBytesThreshold:
		return Decision{job.ModDataCentric, core.SourceAccounting, core.EvStagedBytes, confStaged}
	}

	// Tier 2: behavioral inference over running state. Records arrive in
	// completion order, not submission order, so gaps are measured as
	// magnitudes — close enough for burst detection, and the residual
	// error is exactly what the drift monitor measures.
	bk := burstKey{r.User, r.Name, r.Cores}
	bs := o.bursts[bk]
	if bs == nil {
		bs = &burstState{lastSubmit: r.SubmitTime}
		o.bursts[bk] = bs
		bs.run = 1
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
	if bs.run >= o.cfg.EnsembleMinJobs {
		return Decision{job.ModEnsemble, core.SourceInference, core.EvBurst, confBurst}
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
	if cs.links >= o.cfg.ChainMinLinks {
		return Decision{job.ModWorkflow, core.SourceInference, core.EvChain, confChain}
	}

	// Tier 3: size-based batch split.
	if o.cfg.LargestCores > 0 &&
		float64(r.Cores) >= o.cfg.CapabilityFrac*float64(o.cfg.LargestCores) {
		return Decision{job.ModBatchCapability, core.SourceAccounting, core.EvCapabilitySize, confSizeCap}
	}
	return Decision{job.ModBatchCapacity, core.SourceAccounting, core.EvDefaultCapacity, confSizeDef}
}

// meanConfidence returns the running mean decision confidence for a
// modality (0 when it has no decisions yet).
func (o *online) meanConfidence(m job.Modality) float64 {
	n := o.count[m]
	if n == 0 {
		return 0
	}
	return o.confSum[m] / float64(n)
}
