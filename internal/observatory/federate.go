package observatory

import (
	"encoding/json"
	"errors"
	"fmt"

	"github.com/tgsim/tgmod/internal/stream"
)

// ErrBadModalities is the typed error every ParseModalities failure wraps.
// Match with errors.Is(err, ErrBadModalities).
var ErrBadModalities = errors.New("observatory: bad modalities document")

// ParseModalities decodes an exported per-run /modalities document (what
// the daemon writes to FinalDir as <id>.modalities.json) for offline
// federation with tgobsd -merge.
func ParseModalities(data []byte) (*stream.ModalitiesPayload, error) {
	p := &stream.ModalitiesPayload{}
	if err := json.Unmarshal(data, p); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadModalities, err)
	}
	return p, nil
}

// Federation: fleet-wide /modalities and /drift are deterministic merges
// of the per-run payloads, computed at request time over runs sorted by
// ID. Jobs and NUs sum; confidence is weighted by each run's job count
// (a run that classified more jobs speaks with more weight); drift peaks
// take the max. Merging the same set of per-run payloads always yields
// the same document, which is what the CI determinism gate checks by
// re-merging exported per-run payloads offline with tgobsd -merge.

// FleetModalities is the fleet-level /modalities document: the merged
// windowed usage across every run the daemon knows about.
type FleetModalities struct {
	Runs     []string                `json:"runs"`
	At       float64                 `json:"at"` // max per-run stream clock
	Ingested uint64                  `json:"ingested"`
	Windows  []stream.ModalityWindow `json:"windows"`
	Lifetime stream.ModalityWindow   `json:"lifetime"`
}

// FleetDrift is the fleet-level /drift document.
type FleetDrift struct {
	Runs     []string             `json:"runs"`
	At       float64              `json:"at"`
	Events   int64                `json:"events"`
	Disagree int64                `json:"disagree"`
	Rate     float64              `json:"rate"`
	Windows  []stream.DriftWindow `json:"windows"`
}

// MergeModalities federates per-run modality payloads (paired with their
// run IDs, already in the canonical sorted order). Rows are unioned in
// first-appearance order across runs — per-run payloads list modalities
// in the canonical taxonomy order, so the union is canonical too — and
// windows are matched by label.
func MergeModalities(ids []string, payloads []*stream.ModalitiesPayload) *FleetModalities {
	out := &FleetModalities{Runs: ids}
	if out.Runs == nil {
		out.Runs = []string{}
	}
	type acc struct {
		jobs    int64
		nus     float64
		confW   float64 // confidence weighted by jobs
		confden int64
	}
	// window label → modality → accumulator, plus ordered label/modality
	// lists to keep the output deterministic.
	wins := map[string]map[string]*acc{}
	var winOrder []string
	modOrder := map[string][]string{}
	fold := func(w *stream.ModalityWindow) {
		byMod, ok := wins[w.Window]
		if !ok {
			byMod = map[string]*acc{}
			wins[w.Window] = byMod
			winOrder = append(winOrder, w.Window)
		}
		for _, r := range w.Rows {
			a, ok := byMod[r.Modality]
			if !ok {
				a = &acc{}
				byMod[r.Modality] = a
				modOrder[w.Window] = append(modOrder[w.Window], r.Modality)
			}
			a.jobs += r.Jobs
			a.nus += r.NUs
			a.confW += r.Confidence * float64(r.Jobs)
			a.confden += r.Jobs
		}
	}
	for _, p := range payloads {
		if p == nil {
			continue
		}
		if p.At > out.At {
			out.At = p.At
		}
		out.Ingested += p.Ingested
		for i := range p.Windows {
			fold(&p.Windows[i])
		}
		fold(&p.Lifetime)
	}
	render := func(label string) stream.ModalityWindow {
		win := stream.ModalityWindow{Window: label}
		for _, m := range modOrder[label] {
			a := wins[label][m]
			row := stream.ModalityRow{Modality: m, Jobs: a.jobs, NUs: a.nus}
			if a.confden > 0 {
				row.Confidence = a.confW / float64(a.confden)
			}
			win.TotalJobs += a.jobs
			win.TotalNUs += a.nus
			win.Rows = append(win.Rows, row)
		}
		return win
	}
	for _, label := range winOrder {
		if label == "lifetime" {
			continue
		}
		out.Windows = append(out.Windows, render(label))
	}
	if _, ok := wins["lifetime"]; ok {
		out.Lifetime = render("lifetime")
	} else {
		out.Lifetime = stream.ModalityWindow{Window: "lifetime"}
	}
	return out
}

// MergeDrift federates per-run drift payloads.
func MergeDrift(ids []string, payloads []*stream.DriftPayload) *FleetDrift {
	out := &FleetDrift{Runs: ids}
	if out.Runs == nil {
		out.Runs = []string{}
	}
	type acc struct {
		events, disagree int64
		peak             float64
	}
	wins := map[string]*acc{}
	var winOrder []string
	for _, p := range payloads {
		if p == nil {
			continue
		}
		if p.At > out.At {
			out.At = p.At
		}
		out.Events += p.Events
		out.Disagree += p.Disagree
		for _, w := range p.Windows {
			a, ok := wins[w.Window]
			if !ok {
				a = &acc{}
				wins[w.Window] = a
				winOrder = append(winOrder, w.Window)
			}
			a.events += w.Events
			a.disagree += w.Disagree
			if w.Peak > a.peak {
				a.peak = w.Peak
			}
		}
	}
	if out.Events > 0 {
		out.Rate = float64(out.Disagree) / float64(out.Events)
	}
	for _, label := range winOrder {
		a := wins[label]
		w := stream.DriftWindow{Window: label, Events: a.events, Disagree: a.disagree, Peak: a.peak}
		if a.events > 0 {
			w.Rate = float64(a.disagree) / float64(a.events)
		}
		out.Windows = append(out.Windows, w)
	}
	return out
}

// fleetPayloads gathers the per-run modality payloads in run-ID order.
func (d *Daemon) fleetPayloads() (ids []string, mods []*stream.ModalitiesPayload, dfts []*stream.DriftPayload) {
	for _, rs := range d.runList() {
		mp := rs.modPayload.Load()
		dp := rs.dftPayload.Load()
		if mp == nil && dp == nil {
			continue // nothing published for this run yet
		}
		ids = append(ids, rs.ID)
		mods = append(mods, mp)
		dfts = append(dfts, dp)
	}
	return ids, mods, dfts
}

// FleetModalitiesJSON renders the federated /modalities document.
func (d *Daemon) FleetModalitiesJSON() []byte {
	ids, mods, _ := d.fleetPayloads()
	return stream.MarshalPayload(MergeModalities(ids, mods))
}

// FleetDriftJSON renders the federated /drift document.
func (d *Daemon) FleetDriftJSON() []byte {
	ids, _, dfts := d.fleetPayloads()
	return stream.MarshalPayload(MergeDrift(ids, dfts))
}
