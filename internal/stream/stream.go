// Package stream is the streaming modality observatory: a long-running
// ingest pipeline that consumes accounting packets and gateway attribute
// records as an ordered event stream and maintains, online, what the
// batch analysis in internal/core computes post-run — windowed
// per-modality usage, an incremental classifier with per-decision
// confidence, and drift of the classifier against the trailing
// ground-truth labels carried in the records.
//
// The pipeline has two mounts:
//
//   - Live: Tap(p) attaches the processor to a scenario run through the
//     Observer seam. Every site-ledger flush hands the processor the
//     packet after central ingest, so the stream sees exactly the records
//     the accounting database sees, in the same deterministic order, and
//     adds zero kernel events (same-seed runs stay byte-identical).
//   - Replay: Replay feeds the processor from an exported run directory
//     (acct.jsonl + obs.jsonl) at configurable speed, reproducing the
//     live pipeline's view from cold storage.
//
// Each offered record is applied to the online layers in the call that
// offers it, so the stream sees every record the accounting database sees
// and holds no spool of its own.
//
// Replay equivalence: the online layer is windowed and approximate by
// design, but the end-of-stream report is not. Finalize rebuilds an
// accounting database from the accepted records in canonical order and
// runs the unchanged batch classifier, which is record-order-invariant;
// cmd/tgsim's -replay path goes one step further and classifies the
// loaded export directly (imports preserve ingestion order), so a
// replayed run reproduces the live post-run modality report
// byte-identically.
package stream

import (
	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// Config parameterizes a Processor.
type Config struct {
	// LargestCores is the batch-core count of the federation's largest
	// machine, required by the capability/capacity size split (same role
	// as core.Config.LargestCores).
	LargestCores int
	// Registry, when non-nil, receives the tg_stream_* and tg_drift_*
	// families. Only ever touched from the goroutine driving the offers.
	Registry *telemetry.Registry
}

// Processor is the streaming pipeline state. It is single-goroutine by
// construction (offers and queries both run on the simulation or replay
// goroutine); concurrent HTTP consumers only ever see payloads it has
// already rendered and published elsewhere.
type Processor struct {
	cfg    Config
	syms   *job.Symbols // the run's table, adopted by bindSyms
	now    des.Time
	online *online
	usage  *usageWindows
	drift  *driftMonitor

	// Accepted records, in arrival order, for the end-of-stream report.
	// Job records are kept as pointers into the offered packets or loaded
	// replay records, which never change.
	jobs         []*accounting.JobRecord
	transfers    []accounting.TransferRecord
	gatewayAttrs []accounting.GatewayAttrRecord
	storage      []accounting.StorageRecord

	ingested uint64 // records offered

	// Pre-resolved tg_stream_ingested_total series by record kind (nil
	// without a registry; all nil-safe).
	cJobs, cTransfers, cGatewayAttrs, cStorage *telemetry.Counter
}

// New returns a processor for the given configuration.
func New(cfg Config) *Processor {
	p := &Processor{
		cfg:    cfg,
		online: newOnline(core.Config{LargestCores: cfg.LargestCores}),
		usage:  newUsageWindows(),
		drift:  newDriftMonitor(),
	}
	p.bind(cfg.Registry)
	return p
}

// bind registers the tg_stream_* and tg_drift_* families.
func (p *Processor) bind(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	ing := reg.Counter("tg_stream_ingested_total",
		"Records accepted into the streaming ingest pipeline by kind.", "kind")
	p.cJobs = ing.With("job")
	p.cTransfers = ing.With("transfer")
	p.cGatewayAttrs = ing.With("gateway_attr")
	p.cStorage = ing.With("storage")
	p.drift.bind(reg, func() des.Time { return p.now })
	p.online.bind(reg)
}

// OfferPacket applies every record of a freshly flushed accounting packet
// and advances the clock to the flush time. Attribute and transfer records
// are offered before the job records they evidence, so an online decision
// never misses same-packet evidence. The processor keeps pointers into
// the packet's records, so the caller must not change them afterwards; a
// flushed packet never changes. The first packet with a table gives the
// processor its table if it has none; a packet whose job records index
// another table panics, since one run's records index one table.
func (p *Processor) OfferPacket(at des.Time, pkt *accounting.Packet) {
	if pkt == nil {
		return
	}
	if !p.bindSyms(pkt.Syms) && len(pkt.Jobs) > 0 {
		panic("stream: packet indexes another symbol table than the processor's")
	}
	for i := range pkt.GatewayAttrs {
		p.offerGatewayAttr(&pkt.GatewayAttrs[i])
	}
	for i := range pkt.Transfers {
		p.offerTransfer(&pkt.Transfers[i])
	}
	for i := range pkt.Storage {
		p.offerStorage(&pkt.Storage[i])
	}
	for i := range pkt.Jobs {
		p.offerJob(&pkt.Jobs[i])
	}
	p.Advance(at)
}

// offerJob, offerTransfer, offerGatewayAttr and offerStorage apply one
// record to every online layer at its visibility time (job end, transfer
// end, attribute timestamp), the time the online windows bucket it under,
// independent of when the site ledger happened to flush it. The processor
// keeps r or a copy of it: r must not change afterwards.
func (p *Processor) offerJob(r *accounting.JobRecord) {
	at := des.Time(r.EndTime)
	p.accept(at, p.cJobs)
	p.jobs = append(p.jobs, r)
	res := p.online.classify(r)
	p.usage.observe(at, res.Modality, r.NUs, confidence[res.Evidence])
	p.drift.observe(at, res.Modality, p.Syms().Str(r.TruthModality))
}

func (p *Processor) offerTransfer(r *accounting.TransferRecord) {
	p.accept(des.Time(r.End), p.cTransfers)
	p.transfers = append(p.transfers, *r)
	p.online.ev.AddTransfer(r)
}

func (p *Processor) offerGatewayAttr(r *accounting.GatewayAttrRecord) {
	p.accept(des.Time(r.At), p.cGatewayAttrs)
	p.gatewayAttrs = append(p.gatewayAttrs, *r)
	p.online.ev.AddGatewayAttr(r)
}

func (p *Processor) offerStorage(r *accounting.StorageRecord) {
	p.accept(des.Time(r.At), p.cStorage)
	p.storage = append(p.storage, *r)
}

// accept counts one offered record and moves the clock to its
// visibility time.
func (p *Processor) accept(at des.Time, c *telemetry.Counter) {
	p.ingested++
	c.Inc()
	p.Advance(at)
}

// Advance moves the stream clock to now. Time never moves backwards (late
// offers land in the current bucket).
func (p *Processor) Advance(now des.Time) {
	if now > p.now {
		p.now = now
	}
}

// bindSyms gives the processor t as its table if it has none yet, and
// reports whether t is the processor's table. OfferPacket and Replay.Feed
// bind the table of the records they offer.
func (p *Processor) bindSyms(t *job.Symbols) bool {
	if p.syms == nil {
		p.syms = t
	}
	return p.syms == t
}

// Syms returns the table the processor's job records index, giving the
// processor a fresh one if it has none yet.
func (p *Processor) Syms() *job.Symbols {
	if p.syms == nil {
		p.syms = job.NewSymbols()
	}
	return p.syms
}

// Ingested returns how many records the pipeline accepted: every record
// offered.
func (p *Processor) Ingested() uint64 { return p.ingested }

// Dropped returns 0: the processor applies every offered record. It stays
// because bench/tgbench reads it, and the bench sources are frozen so its
// numbers stay comparable across builds.
func (p *Processor) Dropped() uint64 { return 0 }

// Snap returns the ingest-state slice of a progress snapshot.
func (p *Processor) Snap() telemetry.StreamSnap {
	return telemetry.StreamSnap{Ingested: p.ingested}
}

// Final is the end-of-stream batch view: the accepted records as an
// accounting database, the batch classifier's results over them, and the
// aggregated usage report.
type Final struct {
	Central *accounting.Central
	Results []core.Result
	Report  *core.Report
}

// Finalize closes the stream and runs the unchanged batch classifier over every accepted record, rebuilt as
// an accounting database in canonical record order. Because the batch
// classifier is record-order-invariant, the per-job classifications equal
// what a post-run Classify over the live database produces, no matter
// what order the stream saw the records in. Of several records with one
// JobID the database keeps the first accepted, as a live Central does.
// The database shares the processor's symbol table.
func (p *Processor) Finalize() (*Final, error) {
	syms := p.Syms()
	c := accounting.NewCentral(syms)
	pkt := &accounting.Packet{
		Site: "stream", Seq: 1, SentAt: float64(p.now), Syms: syms,
		Jobs:         canonicalJobs(p.jobs),
		Transfers:    canonicalTransfers(p.transfers),
		GatewayAttrs: canonicalGatewayAttrs(p.gatewayAttrs),
		Storage:      canonicalStorage(p.storage),
	}
	if err := c.Ingest(pkt); err != nil {
		return nil, err
	}
	results := core.NewClassifier(core.Config{LargestCores: p.cfg.LargestCores}).Classify(c)
	return &Final{Central: c, Results: results, Report: core.BuildReport(c, results)}, nil
}
