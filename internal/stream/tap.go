package stream

import (
	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// Tap returns an Observer that mounts the processor on a live run: every
// accounting packet a site ledger flushes is offered to the stream right
// after central ingest (same records, same deterministic order), and
// every progress snapshot carries the stream's ingested count.
//
// The tap rides existing kernel events only — it schedules nothing and
// perturbs nothing, so same-seed runs stay byte-identical with or
// without the stream attached.
func Tap(p *Processor) scenario.Observer {
	return scenario.ObserverFunc(func(a *scenario.Attachment) {
		a.Packets = append(a.Packets, func(at des.Time, pkt *accounting.Packet) {
			p.OfferPacket(at, pkt)
		})
		a.SnapshotExtras = append(a.SnapshotExtras, func(s *telemetry.Snapshot) {
			snap := p.Snap()
			s.Stream = &snap
		})
	})
}
