package stream

import (
	"cmp"
	"slices"
	"sort"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/des"
)

// itemKind tags the record variants flowing through the inbox.
type itemKind uint8

const (
	kindJob itemKind = iota
	kindTransfer
	kindGateway
	kindStorage
)

// item is one spooled record plus its intrinsic visibility time (job end,
// transfer end, attribute timestamp) — the time the online windows bucket
// it under, independent of when the site ledger happened to flush it.
// The record is a pointer, into the offered packet or to a copy an Offer
// method made, so spooling moves a few words instead of the record.
type item struct {
	kind     itemKind
	at       des.Time
	job      *accounting.JobRecord
	transfer *accounting.TransferRecord
	gateway  *accounting.GatewayAttrRecord
	storage  *accounting.StorageRecord
}

// inbox is the bounded ingest spool: the pipeline's backpressure model.
// Offers push, Advance pops in FIFO order; pushing past cap drops the
// record and counts it. The high-water mark records the worst spool depth
// the run saw, so capacity tuning has a number to look at.
type inbox struct {
	cap       int // 0 = unbounded
	items     []item
	head      int
	dropped   uint64
	highWater int
}

// push spools an item, reporting false (and counting) when the cap is hit.
func (b *inbox) push(it item) bool {
	if b.cap > 0 && b.depth() >= b.cap {
		b.dropped++
		return false
	}
	b.items = append(b.items, it)
	if d := b.depth(); d > b.highWater {
		b.highWater = d
	}
	return true
}

// pop removes the oldest spooled item.
func (b *inbox) pop() (item, bool) {
	if b.head >= len(b.items) {
		// Fully drained: reset the backing slice so memory is reclaimed
		// between flush intervals instead of growing for the whole run.
		b.items = b.items[:0]
		b.head = 0
		return item{}, false
	}
	it := b.items[b.head]
	b.items[b.head] = item{}
	b.head++
	return it, true
}

// depth is the number of records currently spooled.
func (b *inbox) depth() int { return len(b.items) - b.head }

// Canonical record orders for Finalize: sorts keyed on record identity so
// the rebuilt database is independent of arrival order.

// canonicalJobs gathers the accepted job records into one exact-size
// slice, sorted by JobID and, within a JobID, by arrival. It sorts 16-byte
// keys rather than the records, then copies each record once.
func canonicalJobs(jobs []*accounting.JobRecord) []accounting.JobRecord {
	type key struct {
		id  int64
		pos int
	}
	keys := make([]key, len(jobs))
	for i, r := range jobs {
		keys[i] = key{r.JobID, i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	out := make([]accounting.JobRecord, len(keys))
	for i, k := range keys {
		out[i] = *jobs[k.pos]
	}
	return out
}

func canonicalTransfers(in []accounting.TransferRecord) []accounting.TransferRecord {
	out := append([]accounting.TransferRecord(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i].TransferID < out[j].TransferID })
	return out
}

func canonicalGatewayAttrs(in []accounting.GatewayAttrRecord) []accounting.GatewayAttrRecord {
	out := append([]accounting.GatewayAttrRecord(nil), in...)
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.JobID != b.JobID {
			return a.JobID < b.JobID
		}
		if a.GatewayID != b.GatewayID {
			return a.GatewayID < b.GatewayID
		}
		return a.GatewayUser < b.GatewayUser
	})
	return out
}

func canonicalStorage(in []accounting.StorageRecord) []accounting.StorageRecord {
	out := append([]accounting.StorageRecord(nil), in...)
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Project < b.Project
	})
	return out
}
