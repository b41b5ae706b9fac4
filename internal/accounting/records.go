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
// live simulation object. Its string fields are Syms into the run's
// job.Symbols table, so a record holds no pointers and takes 160 bytes;
// the wire codec and the JSON export write them as strings (Symbols.Str).
type JobRecord struct {
	JobID   int64
	Name    job.Sym
	User    job.Sym
	Project job.Sym
	Site    job.Sym
	Machine job.Sym
	Queue   job.Sym

	Cores       int
	SubmitTime  float64
	StartTime   float64
	EndTime     float64
	WallSeconds float64
	CoreSeconds float64
	NUs         float64
	QOS         job.Sym
	ExitStatus  job.Sym
	Preemptions int

	// Wasted work: execution lost to unplanned failures (beyond the last
	// checkpoint) that had to be redone. Separates goodput from raw usage
	// in chaos experiments; zero (and absent on the wire) in fault-free runs.
	WastedCoreSeconds float64
	WastedNUs         float64

	// Instrumentation attributes (may be empty depending on coverage).
	SubmitVia      job.Sym
	GatewayID      job.Sym
	WorkflowID     job.Sym
	WorkflowEngine job.Sym
	EnsembleID     job.Sym
	BrokerJobID    job.Sym
	CoAllocID      job.Sym
	ScienceField   job.Sym

	// TruthModality and TruthCampaign carry the generator's ground truth
	// for validation experiments. They are NEVER read by classifiers; the
	// core package's tests enforce that separation.
	TruthModality job.Sym
	TruthCampaign job.Sym
}

// RecordOf converts a finished job into its usage record, charging NUs
// according to the machine it ran on. The job's Syms index the run's
// table already, so the strings are copied as they are and QOS and exit
// state map to pre-seeded Syms: RecordOf interns and allocates nothing.
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
		QOS:         j.QOS.Sym(),
		ExitStatus:  j.State.Sym(),
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

		TruthModality: j.Truth.Modality,
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

// TransferRecord is the usage record for one bulk data movement. Like
// JobRecord's, its string fields are Syms into the run's table, so it holds
// no pointers; the wire codec and the JSON export spell them out.
type TransferRecord struct {
	TransferID int64
	Src, Dst   job.Sym
	Bytes      int64
	Start      float64
	End        float64
	User       job.Sym
	Project    job.Sym
	JobID      int64 // the job a staging transfer serves; 0 if none
}

// GatewayAttrRecord is the AAAA-model attribute a gateway submits alongside
// a community-account job, identifying the real end user of the request.
// Its string fields are Syms into the run's table.
type GatewayAttrRecord struct {
	GatewayID   job.Sym
	GatewayUser job.Sym
	JobID       int64
	At          float64
}

// EndUser returns the person the record names, its (gateway, end user)
// pair, as one key of both Syms.
func (g *GatewayAttrRecord) EndUser() uint64 {
	return uint64(g.GatewayID)<<32 | uint64(g.GatewayUser)
}

// StorageRecord is a periodic snapshot of archival holdings per project.
// Its string fields are Syms into the run's table.
type StorageRecord struct {
	Site    job.Sym
	Project job.Sym
	Bytes   int64
	At      float64
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

	// Syms is the table the records' Syms index: the flushing ledger's,
	// or the one DecodePacket decoded into.
	Syms *job.Symbols `json:"-"`
}

// Records returns the number of records the packet carries, of all kinds.
func (p *Packet) Records() int {
	return len(p.Jobs) + len(p.Transfers) + len(p.GatewayAttrs) + len(p.Storage)
}

// Ledger is a site's local spool of unreported records. Sites flush their
// ledgers to the central database on a reporting interval (or at simulation
// end), mirroring how usage reporting lagged reality operationally.
type Ledger struct {
	Site         string
	syms         *job.Symbols
	seq          uint64
	jobs         []JobRecord
	transfers    []TransferRecord
	gatewayAttrs []GatewayAttrRecord
	storage      []StorageRecord
}

// NewLedger returns an empty ledger for a site whose records index syms,
// the run's table.
func NewLedger(site string, syms *job.Symbols) *Ledger { return &Ledger{Site: site, syms: syms} }

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
		Syms: l.syms,
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
