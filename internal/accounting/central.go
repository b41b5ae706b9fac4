package accounting

import (
	"fmt"
	"slices"
	"sort"
)

// Central is the federation-wide accounting database (the TGCDB analogue).
// It ingests site packets idempotently and answers the aggregation queries
// the usage-modality analysis and the experiment harness rely on.
type Central struct {
	jobs         []JobRecord
	jobIndex     map[int64]int // JobID → index in jobs
	transfers    []TransferRecord
	gatewayAttrs []GatewayAttrRecord
	storage      []StorageRecord
	seen         map[string]uint64 // per-site highest contiguous seq ingested
	duplicates   uint64
	outOfOrder   uint64
	syms         map[string]string // IngestWire's intern table, at most internCap entries
}

// NewCentral returns an empty central database.
func NewCentral() *Central {
	return &Central{
		jobIndex: make(map[int64]int),
		seen:     make(map[string]uint64),
	}
}

// Ingest applies a packet. Packets must arrive in per-site sequence order;
// re-delivery of an already-ingested sequence is counted and skipped, and a
// gap is an error (the transport below is reliable in simulation, so a gap
// indicates a bug). Job records grow along growLive, the other kinds once
// per packet.
func (c *Central) Ingest(p *Packet) error {
	if p == nil {
		return nil
	}
	if fresh, err := c.admit(p.Site, p.Seq); !fresh {
		return err
	}
	from := len(c.jobs)
	c.jobs = append(growLive(c.jobs, len(p.Jobs)), p.Jobs...)
	c.indexJobs(from)
	c.transfers = append(c.transfers, p.Transfers...)
	c.gatewayAttrs = append(c.gatewayAttrs, p.GatewayAttrs...)
	c.storage = append(c.storage, p.Storage...)
	return nil
}

// IngestWire ingests a wire-form packet with the same rules and results as
// DecodePacket followed by Ingest, but decodes the records straight into
// the tails of Central's own slices, with no intermediate Packet, and
// interns the low-cardinality strings. A malformed, duplicate or
// out-of-sequence packet leaves the records unchanged.
func (c *Central) IngestWire(data []byte) error {
	r, err := newWireReader(data)
	if err != nil {
		return err
	}
	if c.syms == nil {
		c.syms = make(map[string]string)
	}
	r.syms, r.live = c.syms, true
	p := Packet{Jobs: c.jobs, Transfers: c.transfers, GatewayAttrs: c.gatewayAttrs, Storage: c.storage}
	err = r.packet(&p)
	if err == nil {
		var fresh bool
		if fresh, err = c.admit(p.Site, p.Seq); fresh {
			from := len(c.jobs)
			c.jobs, c.transfers, c.gatewayAttrs, c.storage = p.Jobs, p.Transfers, p.GatewayAttrs, p.Storage
			c.indexJobs(from)
			return nil
		}
	}
	// Rejected: Central's slice headers never moved. Zero the decoded tails
	// so a shared backing array holds no stale records.
	clear(p.Jobs[len(c.jobs):])
	clear(p.Transfers[len(c.transfers):])
	clear(p.GatewayAttrs[len(c.gatewayAttrs):])
	clear(p.Storage[len(c.storage):])
	return err
}

// bulkLoad is the number of job records above which a packet into an
// empty database counts as a bulk load.
const bulkLoad = 256

// growLive makes room for n more job records. A live database takes a few
// records per packet; growing it in the runtime's own steps, as appending
// record by record does, keeps it on the same capacities, and in steady
// state that is at most one reallocation per packet. Sizing each growth to
// the packet instead starts the sequence from the first packet's length,
// which leaves a different slack in every Result and measured larger on
// quick-scale runs. A bulk load into an empty slice, such as the stream's
// end-of-run rebuild, is sized exactly, in one copy.
func growLive(s []JobRecord, n int) []JobRecord {
	if len(s) == 0 && n > bulkLoad {
		return slices.Grow(s, n)
	}
	for cap(s)-len(s) < n {
		s = append(s[:cap(s)], JobRecord{})[:len(s)]
	}
	return s
}

// admit applies the per-site sequence rule to a packet header. It reports
// whether the packet is the site's next one, recording it if so; a
// re-delivered packet counts as a duplicate and a gap is an error.
func (c *Central) admit(site string, seq uint64) (bool, error) {
	last := c.seen[site]
	switch {
	case seq <= last:
		c.duplicates++
		return false, nil
	case seq != last+1:
		c.outOfOrder++
		return false, fmt.Errorf("accounting: site %s packet gap: got seq %d, want %d", site, seq, last+1)
	}
	c.seen[site] = seq
	return true, nil
}

// indexJobs indexes the job records appended at jobs[from:], dropping (and
// counting) each whose JobID is already present, including earlier in the
// same batch.
func (c *Central) indexJobs(from int) {
	w := from
	for i := from; i < len(c.jobs); i++ {
		id := c.jobs[i].JobID
		if _, dup := c.jobIndex[id]; dup {
			c.duplicates++
			continue
		}
		c.jobIndex[id] = w
		if w != i {
			c.jobs[w] = c.jobs[i]
		}
		w++
	}
	clear(c.jobs[w:])
	c.jobs = c.jobs[:w]
}

// Duplicates returns how many duplicate packets/records were skipped.
func (c *Central) Duplicates() uint64 { return c.duplicates }

// Jobs returns all ingested job records (shared slice; callers must not
// modify).
func (c *Central) Jobs() []JobRecord { return c.jobs }

// Transfers returns all ingested transfer records.
func (c *Central) Transfers() []TransferRecord { return c.transfers }

// GatewayAttrs returns all ingested gateway attribute records.
func (c *Central) GatewayAttrs() []GatewayAttrRecord { return c.gatewayAttrs }

// StorageRecords returns all ingested storage snapshots.
func (c *Central) StorageRecords() []StorageRecord { return c.storage }

// Job looks a job record up by ID.
func (c *Central) Job(id int64) (JobRecord, bool) {
	i, ok := c.jobIndex[id]
	if !ok {
		return JobRecord{}, false
	}
	return c.jobs[i], true
}

// GatewayUserOf returns the gateway end-user attribute for a job, if any.
// Linear scan is avoided by building the map lazily would complicate
// invalidation; the analysis layer builds its own index once.
func (c *Central) GatewayUserOf(jobID int64) (GatewayAttrRecord, bool) {
	for _, r := range c.gatewayAttrs {
		if r.JobID == jobID {
			return r, true
		}
	}
	return GatewayAttrRecord{}, false
}

// ---- Aggregation queries ----

// TotalNUs sums normalized units across all job records.
func (c *Central) TotalNUs() float64 {
	t := 0.0
	for i := range c.jobs {
		t += c.jobs[i].NUs
	}
	return t
}

// NUsBy aggregates NUs by an arbitrary key function, returning a
// deterministic key-sorted slice.
func (c *Central) NUsBy(key func(*JobRecord) string) []KeyedValue {
	agg := make(map[string]float64)
	for i := range c.jobs {
		agg[key(&c.jobs[i])] += c.jobs[i].NUs
	}
	return sortKeyed(agg)
}

// CountBy counts job records by an arbitrary key function.
func (c *Central) CountBy(key func(*JobRecord) string) []KeyedCount {
	agg := make(map[string]int)
	for i := range c.jobs {
		agg[key(&c.jobs[i])]++
	}
	out := make([]KeyedCount, 0, len(agg))
	for k, v := range agg {
		out = append(out, KeyedCount{Key: k, Count: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// DistinctUsersBy returns, per key, the number of distinct charging users.
func (c *Central) DistinctUsersBy(key func(*JobRecord) string) []KeyedCount {
	sets := make(map[string]map[string]bool)
	for i := range c.jobs {
		k := key(&c.jobs[i])
		if sets[k] == nil {
			sets[k] = make(map[string]bool)
		}
		sets[k][c.jobs[i].User] = true
	}
	out := make([]KeyedCount, 0, len(sets))
	for k, s := range sets {
		out = append(out, KeyedCount{Key: k, Count: len(s)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// DistinctUsers counts distinct charging users across all records.
func (c *Central) DistinctUsers() int {
	s := make(map[string]bool)
	for i := range c.jobs {
		s[c.jobs[i].User] = true
	}
	return len(s)
}

// KeyedValue is a (key, float) aggregation row.
type KeyedValue struct {
	Key   string
	Value float64
}

// KeyedCount is a (key, int) aggregation row.
type KeyedCount struct {
	Key   string
	Count int
}

func sortKeyed(m map[string]float64) []KeyedValue {
	out := make([]KeyedValue, 0, len(m))
	for k, v := range m {
		out = append(out, KeyedValue{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// QuarterOf maps a simulation timestamp (seconds) to a quarter index
// (0-based, 91.25-day quarters).
func QuarterOf(seconds float64) int {
	const quarter = 365.0 * 24 * 3600 / 4
	if seconds < 0 {
		return 0
	}
	return int(seconds / quarter)
}

// SizeBin buckets a core count into the standard job-size bins used in
// usage reporting. Bins: 1, 2–16, 17–128, 129–1024, 1025–8192, >8192.
func SizeBin(cores int) string {
	switch {
	case cores <= 1:
		return "1"
	case cores <= 16:
		return "2-16"
	case cores <= 128:
		return "17-128"
	case cores <= 1024:
		return "129-1024"
	case cores <= 8192:
		return "1025-8192"
	default:
		return ">8192"
	}
}

// SizeBins lists the size-bin labels in ascending order.
var SizeBins = []string{"1", "2-16", "17-128", "129-1024", "1025-8192", ">8192"}
