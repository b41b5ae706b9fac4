// Package regress compares two simulation runs' exports and reports what
// changed. It is the cross-run half of the trace-analysis layer: tgsim
// -export writes a run directory (OpenMetrics exposition, obs event
// JSONL, accounting trace), and cmd/tgdiff loads two such directories,
// derives a flat series set from each — raw metrics plus
// accounting-derived aggregates plus the per-modality wait decomposition
// reconstructed from the event stream — and diffs them under configurable
// tolerances.
//
// Because the simulator is deterministic, the expected diff between two
// same-seed runs is exactly empty; anything else is a regression (or an
// intended behavior change that a reviewer should see named, series by
// series). The report is deterministic: same inputs, byte-identical text.
package regress

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/obs"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// Run-directory file names. Every file is optional on load (a run may
// have been exported with only some observability enabled), but at least
// one must be present.
const (
	MetricsFile  = "metrics.om"
	ObsFile      = "obs.jsonl"
	AcctFile     = "acct.jsonl"
	ManifestFile = "manifest.json"
	// ModalityFile is the usage-by-modality report (core.ModalityTable as
	// text): the byte-equivalence anchor between a live run, its replay,
	// and the observatory daemon's final report. tgdiff does not read it.
	ModalityFile = "modality.txt"
)

// Manifest carries the run parameters a consumer needs to reproduce the
// exporting run's analysis without re-deriving them — most importantly
// the classifier's largest-machine size and the final clock position the
// streaming replay advances to.
type Manifest struct {
	Schema       int     `json:"schema"`
	Seed         uint64  `json:"seed"`
	LargestCores int     `json:"largest_cores"`
	EndTimeS     float64 `json:"end_time_s"` // horizon + drain, virtual seconds
}

// ManifestSchema is the current manifest schema version.
const ManifestSchema = 1

// ErrBadManifest is the typed error every malformed manifest.json wraps.
// Match with errors.Is(err, ErrBadManifest).
var ErrBadManifest = errors.New("regress: bad manifest")

// decodeManifest decodes a manifest document. A JSON null decodes to a nil
// manifest, as an absent file does.
func decodeManifest(r io.Reader) (*Manifest, error) {
	var m *Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadManifest, err)
	}
	return m, nil
}

// Run is one loaded run directory.
type Run struct {
	Dir string
	// Metrics holds the parsed OpenMetrics exposition (nil when absent).
	Metrics map[string]float64
	// Events holds the decoded obs event stream (nil when absent).
	Events []obs.Event
	// Central holds the imported accounting database (nil when absent).
	Central *accounting.Central
	// Manifest holds the run parameters (nil when absent; older exports
	// have no manifest).
	Manifest *Manifest
}

// LoadRunDir reads a run directory written by WriteRunDir (tgsim -export).
func LoadRunDir(dir string) (*Run, error) {
	return LoadRunDirSelect(dir, MetricsFile, ObsFile, AcctFile)
}

// LoadRunDirSelect reads only the named run-directory files (from
// MetricsFile, ObsFile, AcctFile), so two runs exported with different
// observability can still be diffed over their common files. The
// manifest is always loaded when present.
func LoadRunDirSelect(dir string, files ...string) (*Run, error) {
	want := make(map[string]bool, len(files))
	for _, f := range files {
		switch f {
		case MetricsFile, ObsFile, AcctFile:
			want[f] = true
		default:
			return nil, fmt.Errorf("regress: unknown run-dir file %q", f)
		}
	}
	r := &Run{Dir: dir}
	found := 0

	if f, err := os.Open(filepath.Join(dir, ManifestFile)); err == nil {
		r.Manifest, err = decodeManifest(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("regress: %s/%s: %w", dir, ManifestFile, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	if want[MetricsFile] {
		if f, err := os.Open(filepath.Join(dir, MetricsFile)); err == nil {
			r.Metrics, err = ParseOpenMetrics(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("regress: %s/%s: %w", dir, MetricsFile, err)
			}
			found++
		} else if !os.IsNotExist(err) {
			return nil, err
		}
	}

	if want[ObsFile] {
		if f, err := os.Open(filepath.Join(dir, ObsFile)); err == nil {
			r.Events, err = obs.ReadJSONL(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("regress: %s/%s: %w", dir, ObsFile, err)
			}
			found++
		} else if !os.IsNotExist(err) {
			return nil, err
		}
	}

	if want[AcctFile] {
		if f, err := os.Open(filepath.Join(dir, AcctFile)); err == nil {
			c := accounting.NewCentral(nil)
			err = c.Import(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("regress: %s/%s: %w", dir, AcctFile, err)
			}
			r.Central = c
			found++
		} else if !os.IsNotExist(err) {
			return nil, err
		}
	}

	if found == 0 {
		return nil, fmt.Errorf("regress: %s: no %s, %s, or %s", dir, MetricsFile, ObsFile, AcctFile)
	}
	return r, nil
}

// WriteRunDir exports a run directory: the single definition of the
// on-disk format both tgsim (writer) and tgdiff/replay (readers) share.
// Nil sources are skipped; their files are not created.
func WriteRunDir(dir string, reg *telemetry.Registry, buf *obs.Buffer, central *accounting.Central, man *Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	writeTo := func(name string, write func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return fmt.Errorf("regress: writing %s/%s: %w", dir, name, err)
		}
		return f.Close()
	}
	if reg != nil {
		if err := writeTo(MetricsFile, func(f *os.File) error { return reg.WriteOpenMetrics(f) }); err != nil {
			return err
		}
	}
	if buf != nil {
		if err := writeTo(ObsFile, func(f *os.File) error { return buf.WriteJSONL(f) }); err != nil {
			return err
		}
	}
	if central != nil {
		if err := writeTo(AcctFile, func(f *os.File) error { return central.Export(f) }); err != nil {
			return err
		}
	}
	if man != nil {
		m := *man
		if m.Schema == 0 {
			m.Schema = ManifestSchema
		}
		if err := writeTo(ManifestFile, func(f *os.File) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", " ")
			return enc.Encode(&m)
		}); err != nil {
			return err
		}
	}
	return nil
}
