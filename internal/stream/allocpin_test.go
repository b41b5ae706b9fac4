//go:build !race

// The allocation pins run only outside the race build, which allocates
// more and would put them at their limits.

package stream_test

import (
	"runtime"
	"testing"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/stream"
)

// maxOfferBytesPerRecord bounds what the live ingest path allocates per
// offered record on quick seed 7 (6,220 records in 130 packets; 50.6 B
// measured): the online classifier's burst and chain state, the evidence
// index, the drift history and the kept packet pointers.
const maxOfferBytesPerRecord = 53

// TestOfferPacketAllocs pins the per-packet stream layer: offering quick
// seed 7's packets, as the run flushed them, to a fresh Processor stays
// under maxOfferBytesPerRecord bytes per record.
func TestOfferPacketAllocs(t *testing.T) {
	type offer struct {
		at  des.Time
		pkt *accounting.Packet
	}
	var offers []offer
	records := 0
	cfg := experiments.StandardConfig(7, experiments.Quick)
	cfg.Observers = append(cfg.Observers, scenario.TapPackets(func(at des.Time, p *accounting.Packet) {
		offers = append(offers, offer{at, p})
		records += p.Records()
	}))
	res, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := stream.New(stream.Config{LargestCores: res.LargestCores})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, o := range offers {
		p.OfferPacket(o.at, o.pkt)
	}
	runtime.ReadMemStats(&after)
	if got := p.Ingested(); got != uint64(records) || res.Central.Len() != 5129 {
		t.Fatalf("ingested %d of %d records from %d jobs, want all from 5129", got, records, res.Central.Len())
	}
	b := float64(after.TotalAlloc-before.TotalAlloc) / float64(records)
	t.Logf("%d records in %d packets: %.1f B/record", records, len(offers), b)
	if b > maxOfferBytesPerRecord {
		t.Errorf("offering allocated %.1f B/record, want at most %d", b, maxOfferBytesPerRecord)
	}
}
