package stream

import (
	"cmp"
	"slices"
	"sort"

	"github.com/tgsim/tgmod/internal/accounting"
)

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
