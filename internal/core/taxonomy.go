// Package core implements the paper's contribution: the usage-modality
// measurement framework. It defines the modality taxonomy with each
// modality's measurement source, classifies observed usage (accounting
// records, gateway attribute records, transfer records) into modalities,
// infers the modalities that carry no direct instrumentation, and produces
// the usage-by-modality reports the TeraGrid wanted in order to understand
// "what objectives users are pursuing, how they go about achieving them,
// and why".
package core

import "github.com/tgsim/tgmod/internal/job"

// Source describes how a modality is measured.
type Source int

// Measurement sources, from strongest to weakest evidence.
const (
	// SourceAccounting: derivable from ordinary accounting fields (QOS,
	// queue, core counts) that every site already reports.
	SourceAccounting Source = iota
	// SourceAttribute: requires a deployed instrumentation attribute
	// (gateway end-user records, workflow/ensemble/broker tags).
	SourceAttribute
	// SourceInference: no instrumentation; inferred from behavioral
	// signatures in the record stream (bursts, chains).
	SourceInference
)

// String returns the source name.
func (s Source) String() string {
	switch s {
	case SourceAccounting:
		return "accounting"
	case SourceAttribute:
		return "attribute"
	case SourceInference:
		return "inference"
	default:
		return "unknown"
	}
}

// Info describes one modality in the taxonomy.
type Info struct {
	ID          job.Modality
	Title       string
	Objective   string // what the user is trying to accomplish
	Source      Source // how the measurement framework detects it
	Fallback    Source // detection when the primary attribute is missing
	HasFallback bool
}

// Taxonomy returns the full modality taxonomy in canonical order. This is
// the paper's Table 1 analogue: each usage modality with the objective it
// serves and the measurement approach.
func Taxonomy() []Info {
	return []Info{
		{
			ID:        job.ModBatchCapability,
			Title:     "Batch HPC — capability",
			Objective: "run the largest single simulations possible (hero runs)",
			Source:    SourceAccounting,
		},
		{
			ID:        job.ModBatchCapacity,
			Title:     "Batch HPC — capacity",
			Objective: "steady production simulation at routine scales",
			Source:    SourceAccounting,
		},
		{
			ID:          job.ModEnsemble,
			Title:       "High-throughput / ensemble",
			Objective:   "explore a parameter space with many similar jobs",
			Source:      SourceAttribute,
			Fallback:    SourceInference,
			HasFallback: true,
		},
		{
			ID:          job.ModWorkflow,
			Title:       "Workflow",
			Objective:   "execute multi-step dependent computations automatically",
			Source:      SourceAttribute,
			Fallback:    SourceInference,
			HasFallback: true,
		},
		{
			ID:        job.ModGateway,
			Title:     "Science gateway",
			Objective: "use domain applications through a web portal without accounts",
			Source:    SourceAttribute,
		},
		{
			ID:        job.ModUrgent,
			Title:     "On-demand / urgent",
			Objective: "compute immediately in response to real-world events",
			Source:    SourceAccounting,
		},
		{
			ID:        job.ModInteractive,
			Title:     "Interactive / visualization",
			Objective: "steer, analyze, and visualize interactively",
			Source:    SourceAccounting,
		},
		{
			ID:        job.ModDataCentric,
			Title:     "Data-centric",
			Objective: "move, store, and analyze large datasets across sites",
			Source:    SourceAccounting,
		},
		{
			ID:        job.ModMetascheduled,
			Title:     "Metascheduled / multi-site",
			Objective: "let the grid choose resources; couple multiple machines",
			Source:    SourceAttribute,
		},
	}
}

// ModalityLabels returns the taxonomy IDs as strings, in canonical order,
// for use as confusion-matrix labels.
func ModalityLabels() []string {
	tax := Taxonomy()
	out := make([]string, len(tax))
	for i, t := range tax {
		out[i] = string(t.ID)
	}
	return out
}
