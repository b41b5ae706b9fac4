package stream

import (
	"fmt"
	"sort"
	"time"

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
// and returns the number of records and span events offered. The caller
// finalizes (or queries) the processor afterwards.
func (rp *Replay) Feed(p *Processor) (records, spans int, err error) {
	if rp.Run == nil || rp.Run.Central == nil {
		return 0, 0, fmt.Errorf("stream: replay needs an export with %s", regress.AcctFile)
	}
	if !p.bindSyms(rp.Run.Central.Syms()) {
		return 0, 0, fmt.Errorf("stream: replay into a processor with another symbol table")
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
	jobs, transfers, attrs, storage := c.Jobs(), c.Transfers(), c.GatewayAttrs(), c.StorageRecords()
	items := make([]replayItem, 0,
		len(jobs)+len(transfers)+len(attrs)+len(storage)+len(rp.Run.Events))
	for i := range attrs {
		r := &attrs[i]
		items = append(items, replayItem{at: des.Time(r.At), prio: 0, seq: i,
			feed: func(p *Processor) { p.offerGatewayAttr(r) }})
	}
	for i := range transfers {
		r := &transfers[i]
		items = append(items, replayItem{at: des.Time(r.End), prio: 1, seq: i,
			feed: func(p *Processor) { p.offerTransfer(r) }})
	}
	for i := range storage {
		r := &storage[i]
		items = append(items, replayItem{at: des.Time(r.At), prio: 2, seq: i,
			feed: func(p *Processor) { p.offerStorage(r) }})
	}
	for i := range jobs {
		r := &jobs[i]
		items = append(items, replayItem{at: des.Time(r.EndTime), prio: 3, seq: i,
			feed: func(p *Processor) { p.offerJob(r) }})
	}
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
