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

// transferJSON, gatewayAttrJSON and storageJSON are the JSON forms of the
// other record kinds, as jobJSON is JobRecord's.
type transferJSON struct {
	TransferID int64   `json:"transfer_id"`
	Src        string  `json:"src"`
	Dst        string  `json:"dst"`
	Bytes      int64   `json:"bytes"`
	Start      float64 `json:"start"`
	End        float64 `json:"end"`
	User       string  `json:"user"`
	Project    string  `json:"project"`
	JobID      int64   `json:"job_id,omitempty"`
}

type gatewayAttrJSON struct {
	GatewayID   string  `json:"gateway_id"`
	GatewayUser string  `json:"gateway_user"`
	JobID       int64   `json:"job_id"`
	At          float64 `json:"at"`
}

type storageJSON struct {
	Site    string  `json:"site"`
	Project string  `json:"project"`
	Bytes   int64   `json:"bytes"`
	At      float64 `json:"at"`
}

func transferToJSON(r *TransferRecord, t *job.Symbols) transferJSON {
	return transferJSON{TransferID: r.TransferID, Src: t.Str(r.Src), Dst: t.Str(r.Dst),
		Bytes: r.Bytes, Start: r.Start, End: r.End,
		User: t.Str(r.User), Project: t.Str(r.Project), JobID: r.JobID}
}

func (j *transferJSON) record(t *job.Symbols) TransferRecord {
	return TransferRecord{TransferID: j.TransferID, Src: t.Intern(j.Src), Dst: t.Intern(j.Dst),
		Bytes: j.Bytes, Start: j.Start, End: j.End,
		User: t.Intern(j.User), Project: t.Intern(j.Project), JobID: j.JobID}
}

func gatewayAttrToJSON(r *GatewayAttrRecord, t *job.Symbols) gatewayAttrJSON {
	return gatewayAttrJSON{GatewayID: t.Str(r.GatewayID), GatewayUser: t.Str(r.GatewayUser),
		JobID: r.JobID, At: r.At}
}

func (j *gatewayAttrJSON) record(t *job.Symbols) GatewayAttrRecord {
	return GatewayAttrRecord{GatewayID: t.Intern(j.GatewayID), GatewayUser: t.Intern(j.GatewayUser),
		JobID: j.JobID, At: j.At}
}

func storageToJSON(r *StorageRecord, t *job.Symbols) storageJSON {
	return storageJSON{Site: t.Str(r.Site), Project: t.Str(r.Project), Bytes: r.Bytes, At: r.At}
}

func (j *storageJSON) record(t *job.Symbols) StorageRecord {
	return StorageRecord{Site: t.Intern(j.Site), Project: t.Intern(j.Project), Bytes: j.Bytes, At: j.At}
}

// Export writes the full database as JSON lines, record strings spelled
// out through the database's table.
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
	for _, r := range c.recs {
		if err := write("job", jobToJSON(r, c.syms)); err != nil {
			return err
		}
	}
	if err := writeRuns(write, "transfer", c.transfers, c.syms, transferToJSON); err != nil {
		return err
	}
	if err := writeRuns(write, "gateway_attr", c.gatewayAttrs, c.syms, gatewayAttrToJSON); err != nil {
		return err
	}
	if err := writeRuns(write, "storage", c.storage, c.syms, storageToJSON); err != nil {
		return err
	}
	return bw.Flush()
}

// writeRuns writes every record of rs, spelled out through t, as a line of
// the given kind.
func writeRuns[T, J any](write func(kind string, v any) error, kind string, rs Runs[T],
	t *job.Symbols, toJSON func(*T, *job.Symbols) J) error {
	for _, run := range rs {
		for i := range run {
			if err := write(kind, toJSON(&run[i], t)); err != nil {
				return err
			}
		}
	}
	return nil
}

// importBlock is the number of records per block Import decodes into
// (40 KiB of job records).
const importBlock = 256

// Import reads a JSON-lines export into an empty central database,
// interning record strings into the database's table. It refuses to
// import into a database that already holds records, since the
// sequence-tracking state would be inconsistent. Every failure wraps
// ErrBadImport; the records of the lines before a failing one stay
// imported.
func (c *Central) Import(r io.Reader) error {
	if len(c.recs)+c.transfers.Len()+c.gatewayAttrs.Len()+c.storage.Len() > 0 {
		return fmt.Errorf("%w: import into non-empty database", ErrBadImport)
	}
	// Records go into fixed-size blocks that Central keeps as runs, so none
	// is copied to grow. The open blocks are kept on every return, so the
	// runs hold every record the database holds.
	var (
		jobs      []JobRecord
		transfers []TransferRecord
		attrs     []GatewayAttrRecord
		storage   []StorageRecord
	)
	defer func() {
		c.jobRuns.add(jobs)
		c.transfers.add(transfers)
		c.gatewayAttrs.add(attrs)
		c.storage.add(storage)
	}()
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
		var err error
		switch tl.Kind {
		case "job":
			var rec jobJSON
			if err = json.Unmarshal(tl.Data, &rec); err == nil && c.unseen(rec.JobID) {
				c.hold(appendBlock(&c.jobRuns, &jobs, rec.record(c.syms)))
			}
		case "transfer":
			err = decodeInto(tl.Data, c.syms, (*transferJSON).record, &c.transfers, &transfers)
		case "gateway_attr":
			err = decodeInto(tl.Data, c.syms, (*gatewayAttrJSON).record, &c.gatewayAttrs, &attrs)
		case "storage":
			err = decodeInto(tl.Data, c.syms, (*storageJSON).record, &c.storage, &storage)
		default:
			return fmt.Errorf("%w: line %d: unknown kind %q", ErrBadImport, lineNo, tl.Kind)
		}
		if err != nil {
			return fmt.Errorf("%w: line %d: %w", ErrBadImport, lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%w: after line %d: %w", ErrBadImport, lineNo, err)
	}
	return nil
}

// decodeInto decodes one record's JSON form, interns its strings into t
// and appends the record to the open block.
func decodeInto[J, T any](data []byte, t *job.Symbols, record func(*J, *job.Symbols) T, rs *Runs[T], block *[]T) error {
	var rec J
	if err := json.Unmarshal(data, &rec); err != nil {
		return err
	}
	appendBlock(rs, block, record(&rec, t))
	return nil
}

// appendBlock appends r to the open block and returns its place there. A
// full block is kept in rs first and a new one of importBlock records
// opened, so a block's array never moves.
func appendBlock[T any](rs *Runs[T], block *[]T, r T) *T {
	if len(*block) == cap(*block) {
		rs.add(*block)
		*block = make([]T, 0, importBlock)
	}
	*block = append(*block, r)
	return &(*block)[len(*block)-1]
}
