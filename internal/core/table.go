package core

import "github.com/tgsim/tgmod/internal/report"

// ModalityTable renders a usage report as the canonical usage-by-modality
// table. It is the single rendering path shared by live tgsim runs, the
// run directory's modality.txt (live and -replay), and the observatory
// daemon's per-run final reports, so every byte-equivalence check
// (replay, push) compares identical bytes by construction.
func ModalityTable(rep *Report) *report.Table {
	mod := report.NewTable("Usage by measured modality",
		"modality", "jobs", "NUs", "NU share", "accounts", "end users")
	for _, row := range rep.Rows {
		mod.AddRowf(string(row.Modality), row.Jobs, row.NUs,
			report.Percent(row.NUs/rep.TotalNUs), row.AccountUsers, row.EndUsers)
	}
	return mod
}
