// Package accounting implements the federation's usage accounting: the
// record schemas sites produce (job usage records, data-transfer records,
// gateway end-user attribute records), the site-local ledgers that batch
// them, the AMIE-style packet exchange that ships them to the central
// database, and the central store with the aggregation queries the
// usage-modality analysis is built on.
package accounting

import (
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/grid"
	"github.com/tgsim/tgmod/internal/job"
)

// JobRecord is the per-job usage record a site reports centrally. It is
// deliberately flat and serializable: this is the wire schema, not the
// live simulation object.
type JobRecord struct {
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

	// Wasted work: execution lost to unplanned failures (beyond the last
	// checkpoint) that had to be redone. Separates goodput from raw usage
	// in chaos experiments; zero (and absent on the wire) in fault-free runs.
	WastedCoreSeconds float64 `json:"wasted_core_s,omitempty"`
	WastedNUs         float64 `json:"wasted_nus,omitempty"`

	// Instrumentation attributes (may be empty depending on coverage).
	SubmitVia      string `json:"submit_via,omitempty"`
	GatewayID      string `json:"gateway_id,omitempty"`
	WorkflowID     string `json:"workflow_id,omitempty"`
	WorkflowEngine string `json:"workflow_engine,omitempty"`
	EnsembleID     string `json:"ensemble_id,omitempty"`
	BrokerJobID    string `json:"broker_job_id,omitempty"`
	CoAllocID      string `json:"coalloc_id,omitempty"`
	ScienceField   string `json:"science_field,omitempty"`

	// TruthModality and TruthCampaign carry the generator's ground truth
	// for validation experiments. They are NEVER read by classifiers; the
	// core package's tests enforce that separation.
	TruthModality string `json:"truth,omitempty"`
	TruthCampaign string `json:"truth_campaign,omitempty"`
}

// RecordOf converts a finished job into its usage record, charging NUs
// according to the machine it ran on.
func RecordOf(j *job.Job, m *grid.Machine) JobRecord {
	cs := j.CoreSeconds()
	return JobRecord{
		JobID:       int64(j.ID),
		Name:        j.Name,
		User:        j.User,
		Project:     j.Project,
		Site:        j.Site,
		Machine:     j.Machine,
		Queue:       j.Queue,
		Cores:       j.Cores,
		SubmitTime:  float64(j.SubmitTime),
		StartTime:   float64(j.StartTime),
		EndTime:     float64(j.EndTime),
		WallSeconds: float64(j.Elapsed()),
		CoreSeconds: cs,
		NUs:         m.NUs(cs),
		QOS:         j.QOS.String(),
		ExitStatus:  j.State.String(),
		Preemptions: j.Preemptions,

		WastedCoreSeconds: j.WastedCoreSeconds,
		WastedNUs:         m.NUs(j.WastedCoreSeconds),

		SubmitVia:      j.Attr.SubmitVia,
		GatewayID:      j.Attr.GatewayID,
		WorkflowID:     j.Attr.WorkflowID,
		WorkflowEngine: j.Attr.WorkflowEngine,
		EnsembleID:     j.Attr.EnsembleID,
		BrokerJobID:    j.Attr.BrokerJobID,
		CoAllocID:      j.Attr.CoAllocID,
		ScienceField:   j.Attr.ScienceField,

		TruthModality: string(j.Truth.Modality),
		TruthCampaign: j.Truth.CampaignID,
	}
}

// WaitSeconds returns the record's queue wait.
func (r *JobRecord) WaitSeconds() float64 {
	w := r.StartTime - r.SubmitTime
	if w < 0 {
		return 0
	}
	return w
}

// TransferRecord is the usage record for one bulk data movement.
type TransferRecord struct {
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

// GatewayAttrRecord is the AAAA-model attribute a gateway submits alongside
// a community-account job, identifying the real end user of the request.
type GatewayAttrRecord struct {
	GatewayID   string  `json:"gateway_id"`
	GatewayUser string  `json:"gateway_user"`
	JobID       int64   `json:"job_id"`
	At          float64 `json:"at"`
}

// StorageRecord is a periodic snapshot of archival holdings per project.
type StorageRecord struct {
	Site    string  `json:"site"`
	Project string  `json:"project"`
	Bytes   int64   `json:"bytes"`
	At      float64 `json:"at"`
}

// Packet is the AMIE-style batch of records a site ships to the central
// database. Packets carry a per-site sequence number; ingestion is
// idempotent on (Site, Seq) so retransmission is safe.
type Packet struct {
	Site         string              `json:"site"`
	Seq          uint64              `json:"seq"`
	SentAt       float64             `json:"sent_at"`
	Jobs         []JobRecord         `json:"jobs,omitempty"`
	Transfers    []TransferRecord    `json:"transfers,omitempty"`
	GatewayAttrs []GatewayAttrRecord `json:"gateway_attrs,omitempty"`
	Storage      []StorageRecord     `json:"storage,omitempty"`
}

// Encode serializes the packet to its wire form, the binary codec in
// wire.go, in a fresh buffer. Hot paths encode with AppendWire into a
// buffer they reuse.
func (p *Packet) Encode() ([]byte, error) { return p.AppendWire(nil), nil }

// Ledger is a site's local spool of unreported records. Sites flush their
// ledgers to the central database on a reporting interval (or at simulation
// end), mirroring how usage reporting lagged reality operationally.
type Ledger struct {
	Site         string
	seq          uint64
	jobs         []JobRecord
	transfers    []TransferRecord
	gatewayAttrs []GatewayAttrRecord
	storage      []StorageRecord
}

// NewLedger returns an empty ledger for a site.
func NewLedger(site string) *Ledger { return &Ledger{Site: site} }

// AddJob spools a job record.
func (l *Ledger) AddJob(r JobRecord) { l.jobs = append(l.jobs, r) }

// AddTransfer spools a transfer record.
func (l *Ledger) AddTransfer(r TransferRecord) { l.transfers = append(l.transfers, r) }

// AddGatewayAttr spools a gateway end-user attribute record.
func (l *Ledger) AddGatewayAttr(r GatewayAttrRecord) { l.gatewayAttrs = append(l.gatewayAttrs, r) }

// AddStorage spools a storage snapshot.
func (l *Ledger) AddStorage(r StorageRecord) { l.storage = append(l.storage, r) }

// Pending returns the number of spooled records of all kinds.
func (l *Ledger) Pending() int {
	return len(l.jobs) + len(l.transfers) + len(l.gatewayAttrs) + len(l.storage)
}

// Flush drains the ledger into a sequenced packet; it returns nil when
// nothing is pending.
//
// The packet owns its records: each non-empty spool is copied into an
// exact-size slice and the spool is reused for the next interval, so a
// flushed packet never changes again. Its consumers rely on that: the
// central database and the stream processor borrow its records instead
// of copying them, and a spill journal or a recorded corpus may keep every
// packet for the whole run.
func (l *Ledger) Flush(now des.Time) *Packet {
	if l.Pending() == 0 {
		return nil
	}
	l.seq++
	return &Packet{
		Site: l.Site, Seq: l.seq, SentAt: float64(now),
		Jobs: drain(&l.jobs), Transfers: drain(&l.transfers),
		GatewayAttrs: drain(&l.gatewayAttrs), Storage: drain(&l.storage),
	}
}

// Release drops the spool buffers. Call it after a run's final flush, so
// whatever still references the ledger (a gateway, a run result) does not
// keep a whole interval's worth of records alive. Later records regrow the
// spools.
func (l *Ledger) Release() {
	l.jobs, l.transfers, l.gatewayAttrs, l.storage = nil, nil, nil, nil
}

// drain returns an exact-size copy of *spool (nil when it is empty) and
// truncates the spool for reuse.
func drain[T any](spool *[]T) []T {
	s := *spool
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	*spool = s[:0]
	return out
}
