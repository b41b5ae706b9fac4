package stream

import (
	"fmt"
	"sort"
	"time"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/obs"
	"github.com/tgsim/tgmod/internal/regress"
)

// Replay feeds a processor from an exported run directory, reproducing
// the live pipeline's view from cold storage: accounting records and obs
// span events are merged into one virtual-time-ordered stream and
// offered in sequence, optionally paced against the wall clock.
type Replay struct {
	// Run is the loaded export (regress.LoadRunDir). At least the
	// accounting trace must be present.
	Run *regress.Run
	// Speed is the replay rate in virtual seconds per wall second;
	// 0 replays as fast as possible. (Speed 3600 plays an hour of
	// simulation per second.)
	Speed float64
	// EndTime, when positive, is the final stream-clock position —
	// normally the exported run's horizon+drain from the manifest, so
	// trailing windows expire exactly as they had live. Zero leaves the
	// clock at the last record.
	EndTime des.Time
	// Sleep replaces time.Sleep for pacing (tests inject a recorder).
	Sleep func(time.Duration)
}

// replayItem is one merged timeline entry.
type replayItem struct {
	at   des.Time
	prio int // kind priority at equal times: evidence before jobs
	seq  int // original index, for a stable merge
	feed func(p *Processor)
}

// Feed streams the export through the processor in virtual-time order
// and returns the number of records and span events offered. The
// processor keeps the loaded database for Finalize as one packet per run
// of records it holds (Import's blocks), in its ingestion order. The
// caller finalizes (or queries) the processor afterwards.
func (rp *Replay) Feed(p *Processor) (records, spans int, err error) {
	if rp.Run == nil || rp.Run.Central == nil {
		return 0, 0, fmt.Errorf("stream: replay needs an export with %s", regress.AcctFile)
	}
	c := rp.Run.Central
	if !p.bindSyms(c.Syms()) {
		return 0, 0, fmt.Errorf("stream: replay into a processor with another symbol table")
	}
	seq := uint64(0)
	packet := func() *accounting.Packet {
		seq++
		pkt := &accounting.Packet{Site: "replay", Seq: seq, Syms: c.Syms()}
		p.packets = append(p.packets, pkt)
		return pkt
	}
	for _, run := range c.JobRuns() {
		packet().Jobs = run
	}
	for _, run := range c.Transfers() {
		packet().Transfers = run
	}
	for _, run := range c.GatewayAttrs() {
		packet().GatewayAttrs = run
	}
	for _, run := range c.StorageRecords() {
		packet().Storage = run
	}
	items := rp.merge()
	sleep := rp.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var clock des.Time
	var owed time.Duration
	primed := false
	for _, it := range items {
		if primed && rp.Speed > 0 && it.at > clock {
			owed += time.Duration(float64(it.at-clock) / rp.Speed * float64(time.Second))
			// Batch sub-millisecond debts so a dense stream doesn't issue
			// millions of no-op sleeps.
			if owed >= time.Millisecond {
				sleep(owed)
				owed = 0
			}
		}
		if it.at > clock || !primed {
			clock = it.at
			primed = true
		}
		it.feed(p)
	}
	if owed > 0 {
		sleep(owed)
	}
	end := rp.EndTime
	if end < clock {
		end = clock
	}
	p.Advance(end)
	return len(items) - len(rp.Run.Events), len(rp.Run.Events), nil
}

// merge builds the unified timeline: gateway attributes, transfers and
// storage snapshots at their record timestamps ahead of jobs at their
// completion times, interleaved with obs span events (which only move the
// clock), stably ordered by
// (time, kind, original index) so the stream is deterministic for a
// given export. The records are offered as pointers into the loaded
// database, which nothing changes while the replay runs.
func (rp *Replay) merge() []replayItem {
	c := rp.Run.Central
	items := make([]replayItem, 0, c.Len()+c.Transfers().Len()+
		c.GatewayAttrs().Len()+c.StorageRecords().Len()+len(rp.Run.Events))
	items = addRuns(items, c.GatewayAttrs(), 0,
		func(r *accounting.GatewayAttrRecord) des.Time { return des.Time(r.At) }, (*Processor).offerGatewayAttr)
	items = addRuns(items, c.Transfers(), 1,
		func(r *accounting.TransferRecord) des.Time { return des.Time(r.End) }, (*Processor).offerTransfer)
	items = addRuns(items, c.StorageRecords(), 2,
		func(r *accounting.StorageRecord) des.Time { return des.Time(r.At) }, (*Processor).offerStorage)
	items = addRuns(items, c.JobRuns(), 3,
		func(r *accounting.JobRecord) des.Time { return des.Time(r.EndTime) }, (*Processor).offerJob)
	for i := range rp.Run.Events {
		at := rp.Run.Events[i].At
		items = append(items, replayItem{at: at, prio: 4, seq: i,
			feed: func(p *Processor) { p.Advance(at) }})
	}
	sort.SliceStable(items, func(i, j int) bool {
		a, b := &items[i], &items[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.prio != b.prio {
			return a.prio < b.prio
		}
		return a.seq < b.seq
	})
	return items
}

// addRuns appends one timeline entry per record of rs at the given kind
// priority, numbered in arrival order.
func addRuns[T any](items []replayItem, rs accounting.Runs[T], prio int,
	at func(*T) des.Time, offer func(*Processor, *T)) []replayItem {
	seq := 0
	for _, run := range rs {
		for i := range run {
			r := &run[i]
			items = append(items, replayItem{at: at(r), prio: prio, seq: seq,
				feed: func(p *Processor) { offer(p, r) }})
			seq++
		}
	}
	return items
}

// RebuildObsBuffer reassembles an obs buffer from decoded events, so a
// replayed run can re-export obs.jsonl byte-identically (the JSONL codec
// round-trips exactly).
func RebuildObsBuffer(events []obs.Event) *obs.Buffer {
	b := obs.NewBuffer()
	for _, ev := range events {
		b.Record(ev)
	}
	return b
}
