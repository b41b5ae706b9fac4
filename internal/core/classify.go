package core

import (
	"fmt"
	"sort"

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
		case r.QOS == accounting.SymUrgent:
			res.Modality, res.Source, res.Evidence = job.ModUrgent, SourceAccounting, EvQOSUrgent
		case r.QOS == accounting.SymInteractive:
			res.Modality, res.Source, res.Evidence = job.ModInteractive, SourceAccounting, EvQOSInteractive
		case r.GatewayID != accounting.SymNone || r.SubmitVia == accounting.SymGateway || gwAttr[r.JobID]:
			res.Modality, res.Source = job.ModGateway, SourceAttribute
			switch {
			case r.GatewayID != accounting.SymNone:
				res.Evidence = EvGatewayID
			case r.SubmitVia == accounting.SymGateway:
				res.Evidence = EvSubmitVia
			default:
				res.Evidence = EvGatewayUserRec
			}
		case r.CoAllocID != accounting.SymNone || r.BrokerJobID != accounting.SymNone || r.SubmitVia == accounting.SymMetasched:
			res.Modality, res.Source = job.ModMetascheduled, SourceAttribute
			switch {
			case r.CoAllocID != accounting.SymNone:
				res.Evidence = EvCoAllocID
			case r.BrokerJobID != accounting.SymNone:
				res.Evidence = EvBrokerID
			default:
				res.Evidence = EvSubmitVia
			}
		case r.WorkflowID != accounting.SymNone:
			res.Modality, res.Source, res.Evidence = job.ModWorkflow, SourceAttribute, EvWorkflowID
			res.CampaignID = syms.Str(r.WorkflowID)
		case r.EnsembleID != accounting.SymNone:
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
	cl.inferChains(jobs, syms, results, undecided)

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
// within the window. Groups are keyed by Sym but numbered in the order of
// their strings, so campaign IDs do not depend on the table.
func (cl *Classifier) inferEnsembles(jobs []accounting.JobRecord, syms *accounting.Symbols, results []Result, undecided []int) {
	type key struct {
		user, name accounting.Sym
		cores      int
	}
	groups := make(map[key][]int)
	for _, i := range undecided {
		r := &jobs[i]
		k := key{r.User, r.Name, r.Cores}
		groups[k] = append(groups[k], i)
	}
	// Deterministic group iteration.
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if ua, ub := syms.Str(keys[a].user), syms.Str(keys[b].user); ua != ub {
			return ua < ub
		}
		if na, nb := syms.Str(keys[a].name), syms.Str(keys[b].name); na != nb {
			return na < nb
		}
		return keys[a].cores < keys[b].cores
	})
	campaignN := 0
	for _, k := range keys {
		idxs := groups[k]
		if len(idxs) < cl.cfg.EnsembleMinJobs {
			continue
		}
		sort.Slice(idxs, func(a, b int) bool {
			ja, jb := &jobs[idxs[a]], &jobs[idxs[b]]
			if ja.SubmitTime != jb.SubmitTime {
				return ja.SubmitTime < jb.SubmitTime
			}
			return ja.JobID < jb.JobID // ties broken by ID: record order must not matter
		})
		// Split into bursts at gaps larger than the window.
		burst := []int{idxs[0]}
		flush := func() {
			if len(burst) >= cl.cfg.EnsembleMinJobs {
				campaignN++
				id := inferredID("ens", campaignN)
				for _, i := range burst {
					results[i] = Result{
						JobID:      jobs[i].JobID,
						Modality:   job.ModEnsemble,
						Source:     SourceInference,
						Evidence:   EvBurst,
						CampaignID: id,
					}
				}
			}
		}
		for _, i := range idxs[1:] {
			gap := jobs[i].SubmitTime - jobs[burst[len(burst)-1]].SubmitTime
			if gap <= cl.cfg.EnsembleWindow {
				burst = append(burst, i)
			} else {
				flush()
				burst = []int{i}
			}
		}
		flush()
	}
}

// inferChains finds untagged workflows: per-user sequences where each next
// job is submitted within ChainSlack after the previous job's end — the
// signature of an external script driving dependencies. Jobs already
// claimed by ensemble inference are skipped. Users are visited in the
// order of their names, so campaign IDs do not depend on the table.
func (cl *Classifier) inferChains(jobs []accounting.JobRecord, syms *accounting.Symbols, results []Result, undecided []int) {
	byUser := make(map[accounting.Sym][]int)
	for _, i := range undecided {
		if results[i].Modality != "" {
			continue
		}
		byUser[jobs[i].User] = append(byUser[jobs[i].User], i)
	}
	usersSorted := make([]accounting.Sym, 0, len(byUser))
	for u := range byUser {
		usersSorted = append(usersSorted, u)
	}
	sort.Slice(usersSorted, func(a, b int) bool {
		return syms.Str(usersSorted[a]) < syms.Str(usersSorted[b])
	})
	campaignN := 0
	for _, u := range usersSorted {
		idxs := byUser[u]
		sort.Slice(idxs, func(a, b int) bool {
			ja, jb := &jobs[idxs[a]], &jobs[idxs[b]]
			if ja.SubmitTime != jb.SubmitTime {
				return ja.SubmitTime < jb.SubmitTime
			}
			return ja.JobID < jb.JobID // ties broken by ID: record order must not matter
		})
		var chain []int
		flush := func() {
			if len(chain) >= cl.cfg.ChainMinLinks {
				campaignN++
				id := inferredID("wf", campaignN)
				for _, i := range chain {
					results[i] = Result{
						JobID:      jobs[i].JobID,
						Modality:   job.ModWorkflow,
						Source:     SourceInference,
						Evidence:   EvChain,
						CampaignID: id,
					}
				}
			}
		}
		for _, i := range idxs {
			if len(chain) == 0 {
				chain = []int{i}
				continue
			}
			prev := &jobs[chain[len(chain)-1]]
			gap := jobs[i].SubmitTime - prev.EndTime
			if gap >= 0 && gap <= cl.cfg.ChainSlack {
				chain = append(chain, i)
			} else {
				flush()
				chain = []int{i}
			}
		}
		flush()
	}
}

func inferredID(prefix string, n int) string {
	return fmt.Sprintf("inf-%s-%05d", prefix, n)
}
