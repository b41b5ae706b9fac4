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
// Records pass through a bounded inbox (the backpressure model): offers
// spool, Advance drains. When the inbox cap is exceeded the record is
// dropped and counted — surfaced as tg_stream_dropped_total, in the
// console /status payload, and by tgsim -strict-obs.
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
	"github.com/tgsim/tgmod/internal/obs"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// Config parameterizes a Processor.
type Config struct {
	// LargestCores is the batch-core count of the federation's largest
	// machine, required by the capability/capacity size split (same role
	// as core.Config.LargestCores).
	LargestCores int
	// InboxCap bounds the ingest spool (0 = unbounded). Records offered
	// past the cap are dropped and counted, never silently lost.
	InboxCap int
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
	inbox  inbox
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

	ingested  uint64 // records accepted into the inbox
	obsEvents uint64 // obs events counted past the pipeline (not spooled)

	// Pre-resolved instruments (nil without a registry; all nil-safe).
	cIngested map[itemKind]*telemetry.Counter
	cObs      *telemetry.Counter
	cDropped  *telemetry.Counter
}

// New returns a processor for the given configuration.
func New(cfg Config) *Processor {
	p := &Processor{
		cfg:    cfg,
		inbox:  inbox{cap: cfg.InboxCap},
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
	p.cIngested = map[itemKind]*telemetry.Counter{
		kindJob:      ing.With("job"),
		kindTransfer: ing.With("transfer"),
		kindGateway:  ing.With("gateway_attr"),
		kindStorage:  ing.With("storage"),
	}
	p.cObs = ing.With("obs")
	p.cDropped = reg.Counter("tg_stream_dropped_total",
		"Records dropped by the streaming inbox under backpressure.").With()
	depth := reg.Gauge("tg_stream_inbox_depth",
		"Records currently spooled in the streaming inbox.")
	depth.Func(func() float64 { return float64(p.inbox.depth()) })
	hw := reg.Gauge("tg_stream_inbox_high_water",
		"Maximum streaming inbox depth observed.")
	hw.Func(func() float64 { return float64(p.inbox.highWater) })
	p.drift.bind(reg, func() des.Time { return p.now })
	p.online.bind(reg)
}

// OfferPacket spools every record of a freshly flushed accounting packet
// and drains the inbox at the flush time. Attribute and transfer records
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

// offerJob, offerTransfer, offerGatewayAttr and offerStorage spool a
// record the processor may keep: r must not change afterwards.
func (p *Processor) offerJob(r *accounting.JobRecord) {
	p.offer(item{kind: kindJob, at: des.Time(r.EndTime), job: r})
}

func (p *Processor) offerTransfer(r *accounting.TransferRecord) {
	p.offer(item{kind: kindTransfer, at: des.Time(r.End), transfer: r})
}

func (p *Processor) offerGatewayAttr(r *accounting.GatewayAttrRecord) {
	p.offer(item{kind: kindGateway, at: des.Time(r.At), gateway: r})
}

func (p *Processor) offerStorage(r *accounting.StorageRecord) {
	p.offer(item{kind: kindStorage, at: des.Time(r.At), storage: r})
}

// OfferObs counts one obs span event through the pipeline. Span events
// carry no accounting state, so they advance the stream clock and the
// ingest counters without touching the classifier.
func (p *Processor) OfferObs(ev obs.Event) {
	p.obsEvents++
	p.cObs.Inc()
	if ev.At > p.now {
		p.now = ev.At
	}
}

func (p *Processor) offer(it item) {
	if !p.inbox.push(it) {
		p.cDropped.Inc()
		return
	}
	p.ingested++
	if c := p.cIngested[it.kind]; c != nil {
		c.Inc()
	}
}

// Advance moves the stream clock to now and drains the inbox: every
// spooled record is classified, windowed, and scored for drift. Time
// never moves backwards (late offers land in the current bucket).
func (p *Processor) Advance(now des.Time) {
	if now > p.now {
		p.now = now
	}
	for {
		it, ok := p.inbox.pop()
		if !ok {
			return
		}
		p.process(it)
	}
}

// process applies one accepted record to every online layer.
func (p *Processor) process(it item) {
	at := it.at
	if at > p.now {
		p.now = at
	}
	switch it.kind {
	case kindJob:
		r := it.job
		p.jobs = append(p.jobs, r)
		res := p.online.classify(r)
		p.usage.observe(at, res.Modality, r.NUs, confidence[res.Evidence])
		p.drift.observe(at, res.Modality, p.Syms().Str(r.TruthModality))
	case kindTransfer:
		p.transfers = append(p.transfers, *it.transfer)
		p.online.ev.AddTransfer(it.transfer)
	case kindGateway:
		p.gatewayAttrs = append(p.gatewayAttrs, *it.gateway)
		p.online.ev.AddGatewayAttr(it.gateway)
	case kindStorage:
		p.storage = append(p.storage, *it.storage)
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

// Now returns the stream clock: the latest virtual time offered or
// advanced to. Deterministic — the processor never reads the wall clock.
func (p *Processor) Now() des.Time { return p.now }

// Ingested returns how many records the pipeline accepted.
func (p *Processor) Ingested() uint64 { return p.ingested }

// Dropped returns how many records the inbox dropped under backpressure.
func (p *Processor) Dropped() uint64 { return p.inbox.dropped }

// Snap returns the ingest-state slice of a progress snapshot.
func (p *Processor) Snap() telemetry.StreamSnap {
	return telemetry.StreamSnap{
		Ingested:  p.ingested,
		Dropped:   p.inbox.dropped,
		Depth:     p.inbox.depth(),
		HighWater: p.inbox.highWater,
	}
}

// Final is the end-of-stream batch view: the accepted records as an
// accounting database, the batch classifier's results over them, and the
// aggregated usage report.
type Final struct {
	Central *accounting.Central
	Results []core.Result
	Report  *core.Report
}

// Finalize closes the stream (draining anything still spooled) and runs
// the unchanged batch classifier over every accepted record, rebuilt as
// an accounting database in canonical record order. Because the batch
// classifier is record-order-invariant, the per-job classifications equal
// what a post-run Classify over the live database produces, no matter
// what order the stream saw the records in. Of several records with one
// JobID the database keeps the first accepted, as a live Central does.
// The database shares the processor's symbol table.
func (p *Processor) Finalize() (*Final, error) {
	p.Advance(p.now)
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
