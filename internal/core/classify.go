package core

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/job"
)

// Result is the classifier's decision for one job record. It holds no
// pointer, so a results slice costs 16 B per job and the collector never
// scans it.
type Result struct {
	JobID int64
	// Rule is the decision branch that fired; it fixes the modality, the
	// evidence tier and the evidence tag.
	Rule Rule
	// Campaign identifies the job's measured campaign, 0 for none: the
	// tag's Sym for a workflow-id or ensemble-id decision, the inferred
	// campaign's number for a burst or chain decision. CampaignID renders
	// it.
	Campaign uint32
}

// group identifies a measured campaign as its CampaignID string does: a
// tag names one campaign whichever attribute carries it, and inferred
// ensembles and workflows are numbered apart. The zero group is none.
type group struct {
	inferred Rule // RuleBurst or RuleChain; RuleNone for a tag
	n        uint32
}

// group returns the result's campaign key, the one place that reads how
// Campaign is encoded.
func (r Result) group() group {
	switch {
	case r.Campaign == 0:
		return group{}
	case r.Rule == RuleBurst || r.Rule == RuleChain:
		return group{r.Rule, r.Campaign}
	}
	return group{RuleNone, r.Campaign}
}

// CampaignID returns the result's campaign as a string: the tag for a
// tagged campaign, inf-ens-NNNNN or inf-wf-NNNNN for an inferred one, ""
// for none. syms is the table the classified records index.
func (r Result) CampaignID(syms *job.Symbols) string {
	switch g := r.group(); {
	case g == group{}:
		return ""
	case g.inferred == RuleBurst:
		return fmt.Sprintf("inf-ens-%05d", g.n)
	case g.inferred == RuleChain:
		return fmt.Sprintf("inf-wf-%05d", g.n)
	default:
		return syms.Str(job.Sym(g.n))
	}
}

// Rule is one decision branch of Classify. The zero Rule decides nothing.
type Rule uint8

// The rules, in the order Classify tries them.
const (
	RuleNone Rule = iota
	RuleQOSUrgent
	RuleQOSInteractive
	RuleGatewayID
	RuleSubmitViaGateway
	RuleGatewayUserRec
	RuleCoAllocID
	RuleBrokerID
	RuleSubmitViaMetasched
	RuleWorkflowID
	RuleEnsembleID
	RuleStagedBytes
	RuleBurst
	RuleChain
	RuleCapabilitySize
	RuleDefaultCapacity
	// NumRules bounds the rules, for tables indexed by Rule.
	NumRules
)

// rules holds each rule's decision. A tag is a stable identifier that
// modreport -explain prints; its prefix names the tier ("qos", "attr" and
// "acct" are direct evidence, "infer" is behavioral). Both submit-via
// rules print one tag.
var rules = [NumRules]struct {
	mod job.Modality
	src Source
	tag string
}{
	RuleQOSUrgent:          {job.ModUrgent, SourceAccounting, "qos:urgent"},
	RuleQOSInteractive:     {job.ModInteractive, SourceAccounting, "qos:interactive"},
	RuleGatewayID:          {job.ModGateway, SourceAttribute, "attr:gateway-id"},
	RuleSubmitViaGateway:   {job.ModGateway, SourceAttribute, "attr:submit-via"},
	RuleGatewayUserRec:     {job.ModGateway, SourceAttribute, "attr:gateway-user-record"},
	RuleCoAllocID:          {job.ModMetascheduled, SourceAttribute, "attr:coalloc-id"},
	RuleBrokerID:           {job.ModMetascheduled, SourceAttribute, "attr:broker-id"},
	RuleSubmitViaMetasched: {job.ModMetascheduled, SourceAttribute, "attr:submit-via"},
	RuleWorkflowID:         {job.ModWorkflow, SourceAttribute, "attr:workflow-id"},
	RuleEnsembleID:         {job.ModEnsemble, SourceAttribute, "attr:ensemble-id"},
	RuleStagedBytes:        {job.ModDataCentric, SourceAccounting, "acct:staged-bytes"},
	RuleBurst:              {job.ModEnsemble, SourceInference, "infer:burst"},
	RuleChain:              {job.ModWorkflow, SourceInference, "infer:chain"},
	RuleCapabilitySize:     {job.ModBatchCapability, SourceAccounting, "acct:capability-size"},
	RuleDefaultCapacity:    {job.ModBatchCapacity, SourceAccounting, "acct:default"},
}

// Modality returns the modality the rule decides ("" for RuleNone).
func (r Rule) Modality() job.Modality { return rules[r].mod }

// Source returns the evidence tier the rule belongs to.
func (r Rule) Source() Source { return rules[r].src }

// String returns the rule's evidence tag, e.g. "attr:gateway-id".
func (r Rule) String() string { return rules[r].tag }

// Fixed classifier thresholds. The ensemble window and the chain slack
// are Config fields because the sensitivity experiment sweeps them.
const (
	// EnsembleMinJobs is the minimum burst size for ensemble inference.
	EnsembleMinJobs = 5
	// ChainMinLinks is the minimum count of dependency-shaped links for
	// workflow inference.
	ChainMinLinks = 3
	// capabilityFrac: a job using at least this fraction of the largest
	// machine's cores is capability-class.
	capabilityFrac = 0.5
	// dataBytesThreshold: a job that moved at least this many bytes
	// through staging is data-centric.
	dataBytesThreshold = 5 << 30
)

// Config tunes the classifier. Zero values are replaced by defaults.
type Config struct {
	// LargestCores is the batch-core count of the federation's largest
	// machine; required (no sane default exists without topology).
	LargestCores int
	// EnsembleWindow: maximum gap (seconds) between successive submissions
	// inside one burst. Default 3600.
	EnsembleWindow float64
	// ChainSlack: a successor submitted within this many seconds after a
	// predecessor's end looks dependency-driven. Default 300.
	ChainSlack float64
}

// WithDefaults returns c with every zero field replaced by its default.
// The batch classifier and the stream's online rules both apply it, so
// they always agree on thresholds.
func (c Config) WithDefaults() Config {
	if c.EnsembleWindow == 0 {
		c.EnsembleWindow = 3600
	}
	if c.ChainSlack == 0 {
		c.ChainSlack = 300
	}
	return c
}

// EvidenceIndex holds the direct evidence about jobs that arrives in
// records other than the job's own: the jobs with a gateway end-user
// attribute record, and the bytes staged per job. The batch classifier
// fills it from the central database, the stream as records arrive. The
// attributed jobs are a set of JobIDs, about one bit per job of the run;
// the staged bytes stay a map, since few jobs stage.
type EvidenceIndex struct {
	gwAttr jobSet
	staged map[int64]int64
}

// NewEvidenceIndex returns an empty index.
func NewEvidenceIndex() *EvidenceIndex {
	return &EvidenceIndex{staged: make(map[int64]int64)}
}

// AddGatewayAttr indexes a gateway end-user attribute record.
func (x *EvidenceIndex) AddGatewayAttr(r *accounting.GatewayAttrRecord) { x.gwAttr.add(r.JobID) }

// AddTransfer adds a transfer's bytes to the job it references, if any.
func (x *EvidenceIndex) AddTransfer(r *accounting.TransferRecord) {
	if r.JobID != 0 {
		x.staged[r.JobID] += r.Bytes
	}
}

// Direct applies the direct-evidence rules (tier 1) to r: QOS, deployed
// attributes and the evidence indexed so far. It reports false when none
// fires. A tagged campaign's Campaign is its tag.
func (x *EvidenceIndex) Direct(r *accounting.JobRecord) (Result, bool) {
	res := Result{JobID: r.JobID}
	switch {
	case r.QOS == job.SymUrgent:
		res.Rule = RuleQOSUrgent
	case r.QOS == job.SymInteractive:
		res.Rule = RuleQOSInteractive
	case r.GatewayID != job.SymNone:
		res.Rule = RuleGatewayID
	case r.SubmitVia == job.SymGateway:
		res.Rule = RuleSubmitViaGateway
	case x.gwAttr.has(r.JobID):
		res.Rule = RuleGatewayUserRec
	case r.CoAllocID != job.SymNone:
		res.Rule = RuleCoAllocID
	case r.BrokerJobID != job.SymNone:
		res.Rule = RuleBrokerID
	case r.SubmitVia == job.SymMetasched:
		res.Rule = RuleSubmitViaMetasched
	case r.WorkflowID != job.SymNone:
		res.Rule, res.Campaign = RuleWorkflowID, uint32(r.WorkflowID)
	case r.EnsembleID != job.SymNone:
		res.Rule, res.Campaign = RuleEnsembleID, uint32(r.EnsembleID)
	case x.staged[r.JobID] >= dataBytesThreshold:
		res.Rule = RuleStagedBytes
	default:
		return Result{}, false
	}
	return res, true
}

// SizeSplit applies the size-based batch split (tier 3) to a job no other
// rule decided: capability when it uses at least half of the largest
// machine's cores, capacity otherwise.
func SizeSplit(r *accounting.JobRecord, largestCores int) Result {
	if largestCores > 0 && float64(r.Cores) >= capabilityFrac*float64(largestCores) {
		return Result{JobID: r.JobID, Rule: RuleCapabilitySize}
	}
	return Result{JobID: r.JobID, Rule: RuleDefaultCapacity}
}

// Classifier assigns usage modalities to accounting records.
type Classifier struct {
	cfg Config
}

// NewClassifier returns a classifier with the given configuration.
func NewClassifier(cfg Config) *Classifier {
	return &Classifier{cfg: cfg.WithDefaults()}
}

// Classify processes the central database and returns one result per job
// record, in record order. It never reads the record's ground-truth label —
// the separation between measurement and generator truth is the point of
// the validation experiments (and is enforced by a test).
func (cl *Classifier) Classify(c *accounting.Central) []Result {
	jobs, syms := c.Jobs(), c.Syms()
	results := make([]Result, len(jobs))

	ev := NewEvidenceIndex()
	for _, run := range c.GatewayAttrs() {
		for i := range run {
			ev.AddGatewayAttr(&run[i])
		}
	}
	for _, run := range c.Transfers() {
		for i := range run {
			ev.AddTransfer(&run[i])
		}
	}

	// Pass 1: direct evidence.
	undecided := make([]int, 0, len(jobs))
	for i, r := range jobs {
		res, ok := ev.Direct(r)
		if !ok {
			undecided = append(undecided, i)
		}
		results[i] = res
	}

	// Pass 2: behavioral inference over the undecided remainder.
	cl.inferEnsembles(jobs, syms, results, undecided)
	undecided = cl.inferChains(jobs, syms, results, undecided)

	// Pass 3: size-based batch split for everything still undecided.
	for _, i := range undecided {
		if results[i].Rule == RuleNone {
			results[i] = SizeSplit(jobs[i], cl.cfg.LargestCores)
		}
	}
	return results
}

// inferEnsembles finds untagged parameter sweeps: bursts of ≥ MinJobs
// submissions by one user with identical job name and core count, each gap
// within the window. It sorts undecided in place so that each (user, name,
// cores) group is one run in time order; Syms are compared as numbers, which
// only groups. The groups large enough to hold a burst are then numbered in
// the order of their strings, so campaign IDs do not depend on the table.
func (cl *Classifier) inferEnsembles(jobs []*accounting.JobRecord, syms *job.Symbols, results []Result, undecided []int) {
	slices.SortFunc(undecided, func(a, b int) int {
		ja, jb := jobs[a], jobs[b]
		if ja.User != jb.User {
			return cmp.Compare(ja.User, jb.User)
		}
		if ja.Name != jb.Name {
			return cmp.Compare(ja.Name, jb.Name)
		}
		if ja.Cores != jb.Cores {
			return cmp.Compare(ja.Cores, jb.Cores)
		}
		return bySubmit(ja, jb)
	})
	var groups []span
	runs(undecided, func(a, b int) bool {
		ja, jb := jobs[a], jobs[b]
		return ja.User == jb.User && ja.Name == jb.Name && ja.Cores == jb.Cores
	}, func(lo, hi int) {
		if hi-lo >= EnsembleMinJobs {
			groups = append(groups, span{lo, hi})
		}
	})
	slices.SortFunc(groups, func(a, b span) int {
		ja, jb := jobs[undecided[a.lo]], jobs[undecided[b.lo]]
		if c := cmp.Compare(syms.Str(ja.User), syms.Str(jb.User)); c != 0 {
			return c
		}
		if c := cmp.Compare(syms.Str(ja.Name), syms.Str(jb.Name)); c != 0 {
			return c
		}
		return cmp.Compare(ja.Cores, jb.Cores)
	})
	var campaignN uint32
	for _, g := range groups {
		// Split into bursts at gaps larger than the window.
		idxs := undecided[g.lo:g.hi]
		runs(idxs, func(a, b int) bool {
			return jobs[b].SubmitTime-jobs[a].SubmitTime <= cl.cfg.EnsembleWindow
		}, func(lo, hi int) {
			if hi-lo >= EnsembleMinJobs {
				campaignN++
				claim(jobs, results, idxs[lo:hi], RuleBurst, campaignN)
			}
		})
	}
}

// inferChains finds untagged workflows: per-user sequences where each next
// job is submitted within ChainSlack after the previous job's end — the
// signature of an external script driving dependencies. It compacts
// undecided in place to the jobs ensemble inference left unclaimed, sorts
// them into one time-ordered run per user, and returns the compacted
// slice. A chain is a stretch of its user's run; qualifying chains are
// numbered in the order of their users' names (a stable sort keeps each
// user's chains in time order), so campaign IDs do not depend on the table.
func (cl *Classifier) inferChains(jobs []*accounting.JobRecord, syms *job.Symbols, results []Result, undecided []int) []int {
	undecided = slices.DeleteFunc(undecided, func(i int) bool { return results[i].Rule != RuleNone })
	slices.SortFunc(undecided, func(a, b int) int {
		ja, jb := jobs[a], jobs[b]
		if ja.User != jb.User {
			return cmp.Compare(ja.User, jb.User)
		}
		return bySubmit(ja, jb)
	})
	var chains []span
	runs(undecided, func(a, b int) bool {
		gap := jobs[b].SubmitTime - jobs[a].EndTime
		return jobs[a].User == jobs[b].User && gap >= 0 && gap <= cl.cfg.ChainSlack
	}, func(lo, hi int) {
		if hi-lo >= ChainMinLinks {
			chains = append(chains, span{lo, hi})
		}
	})
	slices.SortStableFunc(chains, func(a, b span) int {
		return cmp.Compare(syms.Str(jobs[undecided[a.lo]].User), syms.Str(jobs[undecided[b.lo]].User))
	})
	for n, c := range chains {
		claim(jobs, results, undecided[c.lo:c.hi], RuleChain, uint32(n+1))
	}
	return undecided
}

// runs calls emit(lo, hi) for each maximal run s[lo:hi] whose neighbours
// all satisfy join(prev, next).
func runs(s []int, join func(prev, next int) bool, emit func(lo, hi int)) {
	lo := 0
	for k := 1; k <= len(s); k++ {
		if k < len(s) && join(s[k-1], s[k]) {
			continue
		}
		emit(lo, k)
		lo = k
	}
}

// span is the index range [lo, hi) of one inferred group in the sorted
// undecided slice.
type span struct{ lo, hi int }

// bySubmit orders jobs by submission time, ties broken by ID: record order
// must not matter.
func bySubmit(a, b *accounting.JobRecord) int {
	if c := cmp.Compare(a.SubmitTime, b.SubmitTime); c != 0 {
		return c
	}
	return cmp.Compare(a.JobID, b.JobID)
}

// claim records inferred campaign n's decision for each of its jobs.
func claim(jobs []*accounting.JobRecord, results []Result, idxs []int, rule Rule, n uint32) {
	for _, i := range idxs {
		results[i] = Result{JobID: jobs[i].JobID, Rule: rule, Campaign: n}
	}
}
