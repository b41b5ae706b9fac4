package accounting

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"github.com/tgsim/tgmod/internal/job"
	"io"
)

// ErrBadImport is the typed error every Import failure wraps: a line that
// is not a tagged record, an unknown kind, a record that does not decode,
// an over-long line, a read error, or a non-empty database. Import never
// panics on corrupt input; match with errors.Is(err, ErrBadImport).
var ErrBadImport = errors.New("accounting: bad import")

// The export format is JSON-lines: every line is {"kind": ..., ...record}.
// It round-trips the entire central database so traces can be generated
// once (cmd/wlgen) and analyzed repeatedly (cmd/modreport).

type taggedLine struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// jobJSON is a JobRecord's JSON form: its fields, in order, with strings
// in place of Syms.
type jobJSON struct {
	JobID   int64  `json:"job_id"`
	Name    string `json:"name"`
	User    string `json:"user"`
	Project string `json:"project"`
	Site    string `json:"site"`
	Machine string `json:"machine"`
	Queue   string `json:"queue"`

	Cores       int     `json:"cores"`
	SubmitTime  float64 `json:"submit"`
	StartTime   float64 `json:"start"`
	EndTime     float64 `json:"end"`
	WallSeconds float64 `json:"wall_s"`
	CoreSeconds float64 `json:"core_s"`
	NUs         float64 `json:"nus"`
	QOS         string  `json:"qos"`
	ExitStatus  string  `json:"exit"`
	Preemptions int     `json:"preempts,omitempty"`

	WastedCoreSeconds float64 `json:"wasted_core_s,omitempty"`
	WastedNUs         float64 `json:"wasted_nus,omitempty"`

	SubmitVia      string `json:"submit_via,omitempty"`
	GatewayID      string `json:"gateway_id,omitempty"`
	WorkflowID     string `json:"workflow_id,omitempty"`
	WorkflowEngine string `json:"workflow_engine,omitempty"`
	EnsembleID     string `json:"ensemble_id,omitempty"`
	BrokerJobID    string `json:"broker_job_id,omitempty"`
	CoAllocID      string `json:"coalloc_id,omitempty"`
	ScienceField   string `json:"science_field,omitempty"`

	TruthModality string `json:"truth,omitempty"`
	TruthCampaign string `json:"truth_campaign,omitempty"`
}

// jobToJSON spells r's Syms out through t.
func jobToJSON(r *JobRecord, t *job.Symbols) jobJSON {
	return jobJSON{
		JobID: r.JobID, Name: t.Str(r.Name), User: t.Str(r.User), Project: t.Str(r.Project),
		Site: t.Str(r.Site), Machine: t.Str(r.Machine), Queue: t.Str(r.Queue),
		Cores: r.Cores, SubmitTime: r.SubmitTime, StartTime: r.StartTime, EndTime: r.EndTime,
		WallSeconds: r.WallSeconds, CoreSeconds: r.CoreSeconds, NUs: r.NUs,
		QOS: t.Str(r.QOS), ExitStatus: t.Str(r.ExitStatus), Preemptions: r.Preemptions,
		WastedCoreSeconds: r.WastedCoreSeconds, WastedNUs: r.WastedNUs,
		SubmitVia: t.Str(r.SubmitVia), GatewayID: t.Str(r.GatewayID),
		WorkflowID: t.Str(r.WorkflowID), WorkflowEngine: t.Str(r.WorkflowEngine),
		EnsembleID: t.Str(r.EnsembleID), BrokerJobID: t.Str(r.BrokerJobID),
		CoAllocID: t.Str(r.CoAllocID), ScienceField: t.Str(r.ScienceField),
		TruthModality: t.Str(r.TruthModality), TruthCampaign: t.Str(r.TruthCampaign),
	}
}

// record interns j's strings into t.
func (j *jobJSON) record(t *job.Symbols) JobRecord {
	return JobRecord{
		JobID: j.JobID, Name: t.Intern(j.Name), User: t.Intern(j.User), Project: t.Intern(j.Project),
		Site: t.Intern(j.Site), Machine: t.Intern(j.Machine), Queue: t.Intern(j.Queue),
		Cores: j.Cores, SubmitTime: j.SubmitTime, StartTime: j.StartTime, EndTime: j.EndTime,
		WallSeconds: j.WallSeconds, CoreSeconds: j.CoreSeconds, NUs: j.NUs,
		QOS: t.Intern(j.QOS), ExitStatus: t.Intern(j.ExitStatus), Preemptions: j.Preemptions,
		WastedCoreSeconds: j.WastedCoreSeconds, WastedNUs: j.WastedNUs,
		SubmitVia: t.Intern(j.SubmitVia), GatewayID: t.Intern(j.GatewayID),
		WorkflowID: t.Intern(j.WorkflowID), WorkflowEngine: t.Intern(j.WorkflowEngine),
		EnsembleID: t.Intern(j.EnsembleID), BrokerJobID: t.Intern(j.BrokerJobID),
		CoAllocID: t.Intern(j.CoAllocID), ScienceField: t.Intern(j.ScienceField),
		TruthModality: t.Intern(j.TruthModality), TruthCampaign: t.Intern(j.TruthCampaign),
	}
}

// Export writes the full database as JSON lines, job record strings
// spelled out through the database's table.
func (c *Central) Export(w io.Writer) error {
	bw := bufio.NewWriter(w)
	write := func(kind string, v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		line, err := json.Marshal(taggedLine{Kind: kind, Data: data})
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		return bw.WriteByte('\n')
	}
	jobs := c.Jobs()
	for i := range jobs {
		if err := write("job", jobToJSON(&jobs[i], c.syms)); err != nil {
			return err
		}
	}
	for i := range c.transfers {
		if err := write("transfer", &c.transfers[i]); err != nil {
			return err
		}
	}
	for i := range c.gatewayAttrs {
		if err := write("gateway_attr", &c.gatewayAttrs[i]); err != nil {
			return err
		}
	}
	for i := range c.storage {
		if err := write("storage", &c.storage[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// importBlock is the number of job records per block Import decodes into
// (40 KiB).
const importBlock = 256

// Import reads a JSON-lines export into an empty central database,
// interning job record strings into the database's table. It refuses to
// import into a database that already holds records, since the
// sequence-tracking state would be inconsistent. Every failure wraps
// ErrBadImport; the records of the lines before a failing one stay
// imported.
func (c *Central) Import(r io.Reader) error {
	if len(c.jobIndex)+len(c.transfers)+len(c.gatewayAttrs)+len(c.storage) > 0 {
		return fmt.Errorf("%w: import into non-empty database", ErrBadImport)
	}
	// Job records go into blocks that Central keeps as segments, so none
	// is copied to grow before the seal. The last block is kept on every
	// return, so the index never names a record Central does not hold.
	var block []JobRecord
	defer func() { c.borrow(block) }()
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // lines up to 1 MiB, from a 4 KiB start
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var tl taggedLine
		if err := json.Unmarshal(sc.Bytes(), &tl); err != nil {
			return fmt.Errorf("%w: line %d: %w", ErrBadImport, lineNo, err)
		}
		switch tl.Kind {
		case "job":
			var rec jobJSON
			if err := json.Unmarshal(tl.Data, &rec); err != nil {
				return fmt.Errorf("%w: line %d: %w", ErrBadImport, lineNo, err)
			}
			if !c.index(rec.JobID) {
				continue
			}
			if len(block) == cap(block) {
				c.borrow(block)
				block = make([]JobRecord, 0, importBlock)
			}
			block = append(block, rec.record(c.syms))
		case "transfer":
			var rec TransferRecord
			if err := json.Unmarshal(tl.Data, &rec); err != nil {
				return fmt.Errorf("%w: line %d: %w", ErrBadImport, lineNo, err)
			}
			c.transfers = append(c.transfers, rec)
		case "gateway_attr":
			var rec GatewayAttrRecord
			if err := json.Unmarshal(tl.Data, &rec); err != nil {
				return fmt.Errorf("%w: line %d: %w", ErrBadImport, lineNo, err)
			}
			c.gatewayAttrs = append(c.gatewayAttrs, rec)
		case "storage":
			var rec StorageRecord
			if err := json.Unmarshal(tl.Data, &rec); err != nil {
				return fmt.Errorf("%w: line %d: %w", ErrBadImport, lineNo, err)
			}
			c.storage = append(c.storage, rec)
		default:
			return fmt.Errorf("%w: line %d: unknown kind %q", ErrBadImport, lineNo, tl.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%w: after line %d: %w", ErrBadImport, lineNo, err)
	}
	return nil
}
