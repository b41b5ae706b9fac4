package core

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/job"
)

// Result is the classifier's decision for one job record.
type Result struct {
	JobID    int64
	Modality job.Modality
	// Source records which evidence tier decided the classification.
	Source Source
	// Evidence names the specific rule that fired within the tier, e.g.
	// "attr:gateway-id" or "infer:burst". Tags are stable identifiers used
	// by modreport -explain.
	Evidence string
	// Inferred campaign grouping (for ensemble/workflow inference).
	CampaignID string
}

// Evidence tags, one per decision branch of Classify. The prefix names the
// tier ("qos"/"attr"/"acct" are direct evidence, "infer" is behavioral).
const (
	EvQOSUrgent       = "qos:urgent"
	EvQOSInteractive  = "qos:interactive"
	EvGatewayID       = "attr:gateway-id"
	EvSubmitVia       = "attr:submit-via"
	EvGatewayUserRec  = "attr:gateway-user-record"
	EvCoAllocID       = "attr:coalloc-id"
	EvBrokerID        = "attr:broker-id"
	EvWorkflowID      = "attr:workflow-id"
	EvEnsembleID      = "attr:ensemble-id"
	EvStagedBytes     = "acct:staged-bytes"
	EvBurst           = "infer:burst"
	EvChain           = "infer:chain"
	EvCapabilitySize  = "acct:capability-size"
	EvDefaultCapacity = "acct:default"
)

// Config tunes the classifier. Zero values are replaced by defaults.
type Config struct {
	// CapabilityFrac: a job using at least this fraction of the largest
	// machine's cores is capability-class. Default 0.5.
	CapabilityFrac float64
	// LargestCores is the batch-core count of the federation's largest
	// machine; required (no sane default exists without topology).
	LargestCores int
	// EnsembleMinJobs: minimum burst size for ensemble inference. Default 5.
	EnsembleMinJobs int
	// EnsembleWindow: maximum gap (seconds) between successive submissions
	// inside one burst. Default 3600.
	EnsembleWindow float64
	// ChainMinLinks: minimum dependency-shaped links for workflow
	// inference. Default 3.
	ChainMinLinks int
	// ChainSlack: a successor submitted within this many seconds after a
	// predecessor's end looks dependency-driven. Default 300.
	ChainSlack float64
	// DataBytesThreshold: jobs that moved at least this many bytes through
	// staging are data-centric. Default 5 GB.
	DataBytesThreshold int64
}

// WithDefaults returns c with every zero field replaced by its default.
// The batch classifier and the stream's online rules both apply it, so
// they always agree on thresholds.
func (c Config) WithDefaults() Config {
	if c.CapabilityFrac == 0 {
		c.CapabilityFrac = 0.5
	}
	if c.EnsembleMinJobs == 0 {
		c.EnsembleMinJobs = 5
	}
	if c.EnsembleWindow == 0 {
		c.EnsembleWindow = 3600
	}
	if c.ChainMinLinks == 0 {
		c.ChainMinLinks = 3
	}
	if c.ChainSlack == 0 {
		c.ChainSlack = 300
	}
	if c.DataBytesThreshold == 0 {
		c.DataBytesThreshold = 5 << 30
	}
	return c
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

	// Index: jobs that have gateway end-user attribute records.
	gwAttr := make(map[int64]bool, len(c.GatewayAttrs()))
	for _, a := range c.GatewayAttrs() {
		gwAttr[a.JobID] = true
	}
	// Index: bytes staged per job (transfer records referencing jobs).
	staged := make(map[int64]int64)
	for _, tr := range c.Transfers() {
		if tr.JobID != 0 {
			staged[tr.JobID] += tr.Bytes
		}
	}

	// Pass 1: direct evidence.
	undecided := make([]int, 0, len(jobs))
	for i := range jobs {
		r := &jobs[i]
		res := Result{JobID: r.JobID}
		switch {
		case r.QOS == job.SymUrgent:
			res.Modality, res.Source, res.Evidence = job.ModUrgent, SourceAccounting, EvQOSUrgent
		case r.QOS == job.SymInteractive:
			res.Modality, res.Source, res.Evidence = job.ModInteractive, SourceAccounting, EvQOSInteractive
		case r.GatewayID != job.SymNone || r.SubmitVia == job.SymGateway || gwAttr[r.JobID]:
			res.Modality, res.Source = job.ModGateway, SourceAttribute
			switch {
			case r.GatewayID != job.SymNone:
				res.Evidence = EvGatewayID
			case r.SubmitVia == job.SymGateway:
				res.Evidence = EvSubmitVia
			default:
				res.Evidence = EvGatewayUserRec
			}
		case r.CoAllocID != job.SymNone || r.BrokerJobID != job.SymNone || r.SubmitVia == job.SymMetasched:
			res.Modality, res.Source = job.ModMetascheduled, SourceAttribute
			switch {
			case r.CoAllocID != job.SymNone:
				res.Evidence = EvCoAllocID
			case r.BrokerJobID != job.SymNone:
				res.Evidence = EvBrokerID
			default:
				res.Evidence = EvSubmitVia
			}
		case r.WorkflowID != job.SymNone:
			res.Modality, res.Source, res.Evidence = job.ModWorkflow, SourceAttribute, EvWorkflowID
			res.CampaignID = syms.Str(r.WorkflowID)
		case r.EnsembleID != job.SymNone:
			res.Modality, res.Source, res.Evidence = job.ModEnsemble, SourceAttribute, EvEnsembleID
			res.CampaignID = syms.Str(r.EnsembleID)
		case staged[r.JobID] >= cl.cfg.DataBytesThreshold:
			res.Modality, res.Source, res.Evidence = job.ModDataCentric, SourceAccounting, EvStagedBytes
		default:
			undecided = append(undecided, i)
		}
		results[i] = res
	}

	// Pass 2: behavioral inference over the undecided remainder.
	cl.inferEnsembles(jobs, syms, results, undecided)
	undecided = cl.inferChains(jobs, syms, results, undecided)

	// Pass 3: size-based batch split for everything still undecided.
	for _, i := range undecided {
		if results[i].Modality != "" {
			continue
		}
		r := &jobs[i]
		if cl.cfg.LargestCores > 0 &&
			float64(r.Cores) >= cl.cfg.CapabilityFrac*float64(cl.cfg.LargestCores) {
			results[i] = Result{JobID: r.JobID, Modality: job.ModBatchCapability,
				Source: SourceAccounting, Evidence: EvCapabilitySize}
		} else {
			results[i] = Result{JobID: r.JobID, Modality: job.ModBatchCapacity,
				Source: SourceAccounting, Evidence: EvDefaultCapacity}
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
func (cl *Classifier) inferEnsembles(jobs []accounting.JobRecord, syms *job.Symbols, results []Result, undecided []int) {
	slices.SortFunc(undecided, func(a, b int) int {
		ja, jb := &jobs[a], &jobs[b]
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
		ja, jb := &jobs[a], &jobs[b]
		return ja.User == jb.User && ja.Name == jb.Name && ja.Cores == jb.Cores
	}, func(lo, hi int) {
		if hi-lo >= cl.cfg.EnsembleMinJobs {
			groups = append(groups, span{lo, hi})
		}
	})
	slices.SortFunc(groups, func(a, b span) int {
		ja, jb := &jobs[undecided[a.lo]], &jobs[undecided[b.lo]]
		if c := cmp.Compare(syms.Str(ja.User), syms.Str(jb.User)); c != 0 {
			return c
		}
		if c := cmp.Compare(syms.Str(ja.Name), syms.Str(jb.Name)); c != 0 {
			return c
		}
		return cmp.Compare(ja.Cores, jb.Cores)
	})
	campaignN := 0
	for _, g := range groups {
		// Split into bursts at gaps larger than the window.
		idxs := undecided[g.lo:g.hi]
		runs(idxs, func(a, b int) bool {
			return jobs[b].SubmitTime-jobs[a].SubmitTime <= cl.cfg.EnsembleWindow
		}, func(lo, hi int) {
			if hi-lo >= cl.cfg.EnsembleMinJobs {
				campaignN++
				claim(jobs, results, idxs[lo:hi], job.ModEnsemble, EvBurst, inferredID("ens", campaignN))
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
func (cl *Classifier) inferChains(jobs []accounting.JobRecord, syms *job.Symbols, results []Result, undecided []int) []int {
	undecided = slices.DeleteFunc(undecided, func(i int) bool { return results[i].Modality != "" })
	slices.SortFunc(undecided, func(a, b int) int {
		ja, jb := &jobs[a], &jobs[b]
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
		if hi-lo >= cl.cfg.ChainMinLinks {
			chains = append(chains, span{lo, hi})
		}
	})
	slices.SortStableFunc(chains, func(a, b span) int {
		return cmp.Compare(syms.Str(jobs[undecided[a.lo]].User), syms.Str(jobs[undecided[b.lo]].User))
	})
	for n, c := range chains {
		claim(jobs, results, undecided[c.lo:c.hi], job.ModWorkflow, EvChain, inferredID("wf", n+1))
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

// claim records an inferred campaign's decision for each of its jobs.
func claim(jobs []accounting.JobRecord, results []Result, idxs []int, m job.Modality, ev, id string) {
	for _, i := range idxs {
		results[i] = Result{JobID: jobs[i].JobID, Modality: m, Source: SourceInference,
			Evidence: ev, CampaignID: id}
	}
}

func inferredID(prefix string, n int) string {
	return fmt.Sprintf("inf-%s-%05d", prefix, n)
}
