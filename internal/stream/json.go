package stream

import (
	"encoding/json"

	"github.com/tgsim/tgmod/internal/metrics"
)

// The console payloads. Field order is fixed by the struct definitions,
// row order by the canonical taxonomy, and every number is a pure
// function of deterministic simulation state, so same-seed runs produce
// byte-identical documents (golden-tested).

// ModalityRow is one modality's slice of a windowed usage payload.
type ModalityRow struct {
	Modality   string  `json:"modality"`
	Jobs       int64   `json:"jobs"`
	NUs        float64 `json:"nus"`
	Confidence float64 `json:"confidence"` // mean online decision confidence
}

// ModalityWindow is the per-modality usage over one trailing window.
type ModalityWindow struct {
	Window    string        `json:"window"`
	TotalJobs int64         `json:"total_jobs"`
	TotalNUs  float64       `json:"total_nus"`
	Rows      []ModalityRow `json:"rows"`
}

// ModalitiesPayload is the /modalities document.
type ModalitiesPayload struct {
	At       float64          `json:"at"` // stream clock, virtual seconds
	Ingested uint64           `json:"ingested"`
	Windows  []ModalityWindow `json:"windows"`
	Lifetime ModalityWindow   `json:"lifetime"`
}

// Modalities builds the windowed per-modality usage view as of the
// stream clock.
func (p *Processor) Modalities() *ModalitiesPayload {
	now := p.now
	mods := p.usage.modalities()
	out := &ModalitiesPayload{
		At:       float64(now),
		Ingested: p.ingested,
	}
	for w, tw := range metrics.TrailingWindows {
		win := ModalityWindow{Window: tw.Label}
		for _, m := range mods {
			jobs, nus := p.usage.windowTotals(w, m, now)
			win.TotalJobs += jobs
			win.TotalNUs += nus
			win.Rows = append(win.Rows, ModalityRow{
				Modality:   string(m),
				Jobs:       jobs,
				NUs:        nus,
				Confidence: p.usage.meanConfidence(m),
			})
		}
		out.Windows = append(out.Windows, win)
	}
	life := ModalityWindow{Window: "lifetime"}
	for _, m := range mods {
		life.TotalJobs += p.usage.lifeJobs[m]
		life.TotalNUs += p.usage.lifeNUs[m]
		life.Rows = append(life.Rows, ModalityRow{
			Modality:   string(m),
			Jobs:       p.usage.lifeJobs[m],
			NUs:        p.usage.lifeNUs[m],
			Confidence: p.usage.meanConfidence(m),
		})
	}
	out.Lifetime = life
	return out
}

// ModalitiesJSON renders the /modalities document.
func (p *Processor) ModalitiesJSON() []byte {
	return MarshalPayload(p.Modalities())
}

// DriftWindow is the drift summary over one trailing window.
type DriftWindow struct {
	Window   string  `json:"window"`
	Events   int64   `json:"events"`
	Disagree int64   `json:"disagree"`
	Rate     float64 `json:"rate"`
	Peak     float64 `json:"peak"`
}

// DriftPayload is the /drift document.
type DriftPayload struct {
	At       float64       `json:"at"`
	Events   int64         `json:"events"`
	Disagree int64         `json:"disagree"`
	Rate     float64       `json:"rate"`
	Windows  []DriftWindow `json:"windows"`
	// History is the hourly agreement record (absolute virtual hours);
	// the drift experiment reads it back to localize a workload shift.
	History []driftCell `json:"history,omitempty"`
}

// Drift builds the drift view as of the stream clock.
func (p *Processor) Drift() *DriftPayload {
	now := p.now
	d := p.drift
	out := &DriftPayload{
		At:       float64(now),
		Events:   d.agree + d.disagree,
		Disagree: d.disagree,
		Rate:     d.lifetimeRate(),
	}
	for w, tw := range metrics.TrailingWindows {
		t := d.rings[w].Total(now)
		out.Windows = append(out.Windows, DriftWindow{
			Window:   tw.Label,
			Events:   t.Good + t.Bad,
			Disagree: t.Bad,
			Rate:     d.windowRate(w, now),
			Peak:     d.peaks[w],
		})
	}
	out.History = d.history
	return out
}

// DriftJSON renders the /drift document.
func (p *Processor) DriftJSON() []byte {
	return MarshalPayload(p.Drift())
}

// DriftHistory exposes the hourly agreement history (shared slice;
// callers must not modify).
func (p *Processor) DriftHistory() []DriftHistoryCell {
	h := p.drift.History()
	out := make([]DriftHistoryCell, len(h))
	for i, c := range h {
		out[i] = DriftHistoryCell{Hour: c.Hour, Agree: c.Agree, Disagree: c.Disagree}
	}
	return out
}

// DriftHistoryCell is one hour of classifier-agreement history.
type DriftHistoryCell struct {
	Hour     int64
	Agree    int64
	Disagree int64
}

// MarshalPayload renders a console payload (ModalitiesPayload,
// DriftPayload, or a federated aggregate of them) with the console's
// indentation style, so the observatory daemon's per-run and fleet
// documents are byte-compatible with the in-process console's.
// encoding/json output is deterministic for struct types.
func MarshalPayload(v any) []byte {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		// Payload types contain no unmarshalable values; a failure here is
		// a programming error.
		panic("stream: marshal payload: " + err.Error())
	}
	return append(data, '\n')
}
