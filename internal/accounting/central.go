package accounting

import (
	"fmt"

	"github.com/tgsim/tgmod/internal/job"
)

// Central is the federation-wide accounting database (the TGCDB analogue).
// It ingests site packets idempotently and answers the aggregation queries
// the usage-modality analysis and the experiment harness rely on.
//
// Its records index one symbol table (Syms), the run's: every packet with
// records it ingests must carry that table.
//
// Central borrows every record it holds: a flushed packet never changes
// again, so Ingest keeps the runs of a packet's records it accepts in the
// packet's own arrays instead of copying them, and files a pointer to each
// job record it keeps under the record's arrival position. Every read
// (Len, At, Jobs, Job, the record runs, TotalNUs, DistinctUsers,
// Export) reads those arrays in place and writes nothing, so any number of
// goroutines may read a Central concurrently while no ingest runs.
type Central struct {
	syms         *job.Symbols // the table every held record indexes
	recs         []*JobRecord // job records in arrival order, in borrowed arrays
	jobRuns      Runs[JobRecord]
	ids          idIndex // JobID → arrival position in recs
	transfers    Runs[TransferRecord]
	gatewayAttrs Runs[GatewayAttrRecord]
	storage      Runs[StorageRecord]
	seen         map[string]uint64 // per-site highest contiguous seq ingested
	duplicates   uint64
}

// Runs is a read-only view of one kind of record a Central holds: the runs
// of records it borrowed from the packets it ingested (or the blocks Import
// decoded into), in arrival order. Callers change neither the runs nor the
// records.
type Runs[T any] [][]T

// Len returns the number of records in the runs.
func (rs Runs[T]) Len() int {
	n := 0
	for _, r := range rs {
		n += len(r)
	}
	return n
}

// add keeps a non-empty run. The full slice expression caps it at its
// length, so an append to a run a caller was handed reallocates instead of
// writing into the spare capacity of the array the run shares.
func (rs *Runs[T]) add(s []T) {
	if len(s) > 0 {
		*rs = append(*rs, s[:len(s):len(s)])
	}
}

// idIndex maps JobIDs to arrival positions. In-process JobIDs count up
// from 1 (workload.Env.NewJobID), so an ID within denseReach of four times
// the records held is a slot of a slice of positions; any other ID, which
// only wire or imported input carries, goes to a map. No input can make
// the slice outgrow the records it indexes by more than that margin.
type idIndex struct {
	dense []int32 // dense[id] is the position of JobID id plus one; 0 if absent
	far   map[int64]int
}

// denseReach is the slack past four slots per held record within which a
// JobID still goes into the dense slice (16 KiB of slots).
const denseReach = 4096

func (x *idIndex) get(id int64) (int, bool) {
	if id >= 0 && id < int64(len(x.dense)) && x.dense[id] != 0 {
		return int(x.dense[id]) - 1, true
	}
	// An ID filed in the map before the slice grew past it is still there.
	pos, ok := x.far[id]
	return pos, ok
}

func (x *idIndex) add(id int64, pos int) {
	if id >= 0 && id < 4*int64(pos)+denseReach {
		if n := int(id) + 1 - len(x.dense); n > 0 {
			// The new slots read 0: grow's spare capacity is zeroed, and
			// the slice never shrinks.
			x.dense = grow(x.dense, n)[:id+1]
		}
		x.dense[id] = int32(pos + 1)
		return
	}
	if x.far == nil {
		x.far = make(map[int64]int)
	}
	x.far[id] = pos
}

// NewCentral returns an empty central database whose records index syms,
// the run's table; nil gives the database a fresh table.
func NewCentral(syms *job.Symbols) *Central {
	if syms == nil {
		syms = job.NewSymbols()
	}
	return &Central{syms: syms, seen: make(map[string]uint64)}
}

// Ingest applies a packet. Packets must arrive in per-site sequence order;
// re-delivery of an already-ingested sequence is counted and skipped, and a
// gap is an error (the transport below is reliable in simulation, so a gap
// indicates a bug). Central borrows the records: it keeps the runs of
// p.Jobs between duplicate JobIDs, and p's other record slices, in place
// and never writes to them, so the caller must not change p afterwards. A
// packet whose records index another table than the database's is an
// error, and is not admitted.
func (c *Central) Ingest(p *Packet) error {
	if p == nil {
		return nil
	}
	if p.Records() > 0 && p.Syms != c.syms {
		return fmt.Errorf("accounting: site %s packet %d indexes another symbol table", p.Site, p.Seq)
	}
	if fresh, err := c.admit(p.Site, p.Seq); !fresh {
		return err
	}
	c.keep(p)
	return nil
}

// IngestWire decodes a packet in the binary wire form into the database's
// table and ingests it as Ingest does. It returns the packet, or nil for a
// re-delivery. It interns the records' strings only once the whole
// packet has decoded and been admitted, so input it rejects (a malformed
// packet, a gap or a re-delivery) leaves the table as it was: a long-lived
// table fed untrusted bytes grows only by the strings of packets it keeps.
func (c *Central) IngestWire(data []byte) (*Packet, error) {
	p, r, err := checkPacket(data)
	if err != nil {
		return nil, err
	}
	if fresh, err := c.admit(p.Site, p.Seq); !fresh {
		return nil, err
	}
	r.intern(p, c.syms)
	c.keep(p)
	return p, nil
}

// keep files the records of an admitted packet.
func (c *Central) keep(p *Packet) {
	from := 0
	for i := range p.Jobs {
		if c.unseen(p.Jobs[i].JobID) {
			c.hold(&p.Jobs[i])
			continue
		}
		c.jobRuns.add(p.Jobs[from:i])
		from = i + 1
	}
	c.jobRuns.add(p.Jobs[from:])
	c.transfers.add(p.Transfers)
	c.gatewayAttrs.add(p.GatewayAttrs)
	c.storage.add(p.Storage)
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
		return false, fmt.Errorf("accounting: site %s packet gap: got seq %d, want %d", site, seq, last+1)
	}
	c.seen[site] = seq
	return true, nil
}

// unseen reports whether no held job record has JobID id. It counts a
// duplicate when one has: Central keeps the first record of each JobID.
func (c *Central) unseen(id int64) bool {
	if _, dup := c.ids.get(id); dup {
		c.duplicates++
		return false
	}
	return true
}

// hold files an unseen job record, in an array Central keeps, under the
// next arrival position.
func (c *Central) hold(r *JobRecord) {
	c.ids.add(r.JobID, len(c.recs))
	c.recs = append(grow(c.recs, 1), r)
}

// grow returns s with room for n more elements. When it reallocates it
// doubles the capacity (or fits n), so a table grown record by record
// allocates about twice its final size in all; append's growth of a large
// slice, by a quarter at a time, allocates about five times.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	t := make([]T, len(s), max(2*cap(s), len(s)+n))
	copy(t, s)
	return t
}

// Syms returns the table the database's records index.
func (c *Central) Syms() *job.Symbols { return c.syms }

// Duplicates returns how many duplicate packets/records were skipped.
func (c *Central) Duplicates() uint64 { return c.duplicates }

// Len returns the number of job records held.
func (c *Central) Len() int { return len(c.recs) }

// At returns the i-th job record in arrival order, in the array Central
// borrowed it from. Callers must not change it.
func (c *Central) At(i int) *JobRecord { return c.recs[i] }

// Jobs returns the job records in arrival order, each pointing into the
// array Central borrowed it from (shared; callers change neither the slice
// nor the records).
func (c *Central) Jobs() []*JobRecord { return c.recs }

// JobRuns returns the runs of job records Central holds, in arrival order:
// the kept parts of the packets it ingested or the blocks Import decoded.
func (c *Central) JobRuns() Runs[JobRecord] { return c.jobRuns }

// Transfers returns the ingested transfer records.
func (c *Central) Transfers() Runs[TransferRecord] { return c.transfers }

// GatewayAttrs returns the ingested gateway attribute records.
func (c *Central) GatewayAttrs() Runs[GatewayAttrRecord] { return c.gatewayAttrs }

// StorageRecords returns the ingested storage snapshots.
func (c *Central) StorageRecords() Runs[StorageRecord] { return c.storage }

// Job looks a job record up by ID.
func (c *Central) Job(id int64) (JobRecord, bool) {
	i, ok := c.ids.get(id)
	if !ok {
		return JobRecord{}, false
	}
	return *c.recs[i], true
}

// Pos returns the arrival position (the index At takes) of the job record
// with JobID id.
func (c *Central) Pos(id int64) (int, bool) { return c.ids.get(id) }

// ---- Aggregation queries ----

// TotalNUs sums normalized units across all job records.
func (c *Central) TotalNUs() float64 {
	t := 0.0
	for _, r := range c.recs {
		t += r.NUs
	}
	return t
}

// DistinctUsers counts distinct charging users across all records.
func (c *Central) DistinctUsers() int {
	s := make(map[job.Sym]bool)
	for _, r := range c.recs {
		s[r.User] = true
	}
	return len(s)
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
