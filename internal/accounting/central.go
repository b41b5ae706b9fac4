package accounting

import (
	"fmt"
	"github.com/tgsim/tgmod/internal/job"
)

// Central is the federation-wide accounting database (the TGCDB analogue).
// It ingests site packets idempotently and answers the aggregation queries
// the usage-modality analysis and the experiment harness rely on.
//
// Its job records index one symbol table (Syms), the run's: every packet
// with job records it ingests must carry that table.
//
// Central borrows job records: Ingest keeps the runs of a packet's jobs it
// accepts as segments instead of copying them, which is sound because a
// flushed packet never changes again. The first read after an ingest seals
// the segments into one slice (jobs): Jobs, Job, TotalNUs, DistinctUsers
// and Export all seal first. A read
// therefore writes once, and Central is not safe for concurrent use while
// records are pending. Once a read has sealed the records and no ingest
// follows, any number of goroutines may read concurrently.
type Central struct {
	syms         *job.Symbols  // the table every held job record indexes
	jobs         []JobRecord   // sealed records, in arrival order
	segs         [][]JobRecord // borrowed runs of job records since the last seal
	jobIndex     map[int64]int // JobID → arrival index across jobs, then segs
	transfers    []TransferRecord
	gatewayAttrs []GatewayAttrRecord
	storage      []StorageRecord
	seen         map[string]uint64 // per-site highest contiguous seq ingested
	duplicates   uint64
}

// NewCentral returns an empty central database whose job records index
// syms, the run's table; nil gives the database a fresh table.
func NewCentral(syms *job.Symbols) *Central {
	if syms == nil {
		syms = job.NewSymbols()
	}
	return &Central{
		syms:     syms,
		jobIndex: make(map[int64]int),
		seen:     make(map[string]uint64),
	}
}

// Ingest applies a packet. Packets must arrive in per-site sequence order;
// re-delivery of an already-ingested sequence is counted and skipped, and a
// gap is an error (the transport below is reliable in simulation, so a gap
// indicates a bug). Central borrows the job records: it keeps the runs of
// p.Jobs between duplicate JobIDs as segments and never writes to them, so
// the caller must not change p.Jobs afterwards. The other kinds are
// copied, growing once per packet. A packet whose job records index
// another table than the database's is an error, and is not admitted.
func (c *Central) Ingest(p *Packet) error {
	if p == nil {
		return nil
	}
	if len(p.Jobs) > 0 && p.Syms != c.syms {
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
// re-delivery. It interns the job records' strings only once the whole
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
		if !c.index(p.Jobs[i].JobID) {
			c.borrow(p.Jobs[from:i])
			from = i + 1
		}
	}
	c.borrow(p.Jobs[from:])
	c.transfers = append(c.transfers, p.Transfers...)
	c.gatewayAttrs = append(c.gatewayAttrs, p.GatewayAttrs...)
	c.storage = append(c.storage, p.Storage...)
}

// borrow keeps a non-empty run of job records as a pending segment. The
// full slice expression caps it at its length, so an append to a sealed
// slice that adopted it reallocates instead of writing into the array the
// segment shares.
func (c *Central) borrow(s []JobRecord) {
	if len(s) > 0 {
		c.segs = append(c.segs, s[:len(s):len(s)])
	}
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

// index files the next job record's JobID under the next arrival index,
// which is the index's size: it holds one entry per record kept. It reports
// false, and counts a duplicate, when the JobID is already present:
// Central keeps the first record of each JobID.
func (c *Central) index(id int64) bool {
	if _, dup := c.jobIndex[id]; dup {
		c.duplicates++
		return false
	}
	c.jobIndex[id] = len(c.jobIndex)
	return true
}

// Syms returns the table the database's job records index.
func (c *Central) Syms() *job.Symbols { return c.syms }

// Duplicates returns how many duplicate packets/records were skipped.
func (c *Central) Duplicates() uint64 { return c.duplicates }

// Jobs returns all ingested job records in arrival order (shared slice;
// callers must not modify). Every read of the job records goes through it:
// it seals the pending segments onto the end of the sealed slice. A lone
// segment in an empty Central becomes the sealed slice as it is;
// otherwise the first seal allocates the slice at its exact size, and
// later seals append.
func (c *Central) Jobs() []JobRecord {
	switch {
	case len(c.segs) == 0:
		return c.jobs
	case len(c.jobs) == 0 && len(c.segs) == 1:
		c.jobs = c.segs[0]
	default:
		if len(c.jobs) == 0 {
			c.jobs = make([]JobRecord, 0, len(c.jobIndex))
		}
		for _, s := range c.segs {
			c.jobs = append(c.jobs, s...)
		}
	}
	c.segs = nil
	return c.jobs
}

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
	return c.Jobs()[i], true
}

// ---- Aggregation queries ----

// TotalNUs sums normalized units across all job records.
func (c *Central) TotalNUs() float64 {
	t := 0.0
	jobs := c.Jobs()
	for i := range jobs {
		t += jobs[i].NUs
	}
	return t
}

// DistinctUsers counts distinct charging users across all records.
func (c *Central) DistinctUsers() int {
	s := make(map[job.Sym]bool)
	jobs := c.Jobs()
	for i := range jobs {
		s[jobs[i].User] = true
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
