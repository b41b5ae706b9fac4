// Binary wire codec for accounting packets. Every periodic ledger flush
// crosses it on the way to the central database (the simulated AMIE wire),
// and observatory packet frames, daemon WAL records and push spill journals
// carry the same bytes. A packet is the magic "TGP", a version byte, and the
// schema's fields in fixed order as varints, little-endian float64 bits and
// length-prefixed strings: no reflection, no intermediate maps, one buffer.
//
// The wire format is internal to the simulation (producer and consumer
// are the same build), so evolution is handled with a plain version byte.
// The JSON-lines archive in io.go is a separate format: run-dir artifacts
// remain human-readable.
package accounting

import (
	"encoding/binary"
	"errors"
	"fmt"
	"github.com/tgsim/tgmod/internal/job"
	"math"
	"slices"
)

// ErrBadPacket is the typed error every malformed-packet failure wraps:
// truncation, bad magic, unknown version, an impossible record count, or
// trailing bytes.
// Decoding never panics on corrupt input; match with
// errors.Is(err, ErrBadPacket).
var ErrBadPacket = errors.New("accounting: bad packet")

// wireMagic brands binary packets; wireVersion is the schema revision.
// Version 2 appends the wasted-work fields to each job record; the encoder
// emits version 1 (byte-identical to the pre-fault codec) whenever every
// job's wasted fields are zero, so fault-free runs keep their exact wire
// bytes, and the decoder accepts both.
const (
	wireMagic    = "TGP"
	wireVersion  = byte(1)
	wireVersion2 = byte(2)
)

func appendU64(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendI64(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// wireReader is a cursor over an encoded packet. Errors are sticky: after
// the first malformed field every read returns zero values, and the caller
// checks err once at the end.
type wireReader struct {
	data    []byte
	off     int
	ver     byte
	err     error
	recsOff int          // offset of the first record count
	syms    *job.Symbols // the table record strings intern into; nil checks them only
}

// newWireReader checks the packet header (magic and version) and returns
// a reader positioned at the first field, which interns nothing until
// intern gives it a table.
func newWireReader(data []byte) (wireReader, error) {
	if len(data) < len(wireMagic)+1 || string(data[:len(wireMagic)]) != wireMagic {
		return wireReader{}, fmt.Errorf("%w: missing wire magic", ErrBadPacket)
	}
	v := data[len(wireMagic)]
	if v != wireVersion && v != wireVersion2 {
		return wireReader{}, fmt.Errorf("%w: unsupported wire version %d", ErrBadPacket, v)
	}
	return wireReader{data: data, off: len(wireMagic) + 1, ver: v}, nil
}

func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s at offset %d", ErrBadPacket, what, r.off)
	}
}

func (r *wireReader) u64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) i64(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) f64(what string) float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

// raw reads a length-prefixed string's bytes, which alias the packet.
func (r *wireReader) raw(what string) []byte {
	n := r.u64(what)
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail(what)
		return nil
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *wireReader) str(what string) string { return string(r.raw(what)) }

// sym reads a string into the reader's table; a string the table already
// holds costs no allocation. Without a table it only checks the string
// and returns SymNone.
func (r *wireReader) sym(what string) job.Sym {
	b := r.raw(what)
	if r.syms == nil {
		return job.SymNone
	}
	return r.syms.InternBytes(b)
}

func appendSym(b []byte, t *job.Symbols, s job.Sym) []byte { return appendStr(b, t.Str(s)) }

// count reads a record count and bounds it by the bytes left (every
// record takes at least minSize bytes), so a corrupt count cannot drive a
// large allocation.
func (r *wireReader) count(what string, minSize int) int {
	n := r.u64(what)
	if r.err != nil {
		return 0
	}
	if n > uint64((len(r.data)-r.off)/minSize) {
		r.fail(what)
		return 0
	}
	return int(n)
}

func appendJobRecord(b []byte, j *JobRecord, ver byte, t *job.Symbols) []byte {
	b = appendI64(b, j.JobID)
	b = appendSym(b, t, j.Name)
	b = appendSym(b, t, j.User)
	b = appendSym(b, t, j.Project)
	b = appendSym(b, t, j.Site)
	b = appendSym(b, t, j.Machine)
	b = appendSym(b, t, j.Queue)
	b = appendI64(b, int64(j.Cores))
	b = appendF64(b, j.SubmitTime)
	b = appendF64(b, j.StartTime)
	b = appendF64(b, j.EndTime)
	b = appendF64(b, j.WallSeconds)
	b = appendF64(b, j.CoreSeconds)
	b = appendF64(b, j.NUs)
	b = appendSym(b, t, j.QOS)
	b = appendSym(b, t, j.ExitStatus)
	b = appendI64(b, int64(j.Preemptions))
	b = appendSym(b, t, j.SubmitVia)
	b = appendSym(b, t, j.GatewayID)
	b = appendSym(b, t, j.WorkflowID)
	b = appendSym(b, t, j.WorkflowEngine)
	b = appendSym(b, t, j.EnsembleID)
	b = appendSym(b, t, j.BrokerJobID)
	b = appendSym(b, t, j.CoAllocID)
	b = appendSym(b, t, j.ScienceField)
	b = appendSym(b, t, j.TruthModality)
	b = appendSym(b, t, j.TruthCampaign)
	if ver >= wireVersion2 {
		b = appendF64(b, j.WastedCoreSeconds)
		b = appendF64(b, j.WastedNUs)
	}
	return b
}

func (r *wireReader) jobRecord(j *JobRecord) {
	j.JobID = r.i64("job_id")
	j.Name = r.sym("name")
	j.User = r.sym("user")
	j.Project = r.sym("project")
	j.Site = r.sym("site")
	j.Machine = r.sym("machine")
	j.Queue = r.sym("queue")
	j.Cores = int(r.i64("cores"))
	j.SubmitTime = r.f64("submit")
	j.StartTime = r.f64("start")
	j.EndTime = r.f64("end")
	j.WallSeconds = r.f64("wall_s")
	j.CoreSeconds = r.f64("core_s")
	j.NUs = r.f64("nus")
	j.QOS = r.sym("qos")
	j.ExitStatus = r.sym("exit")
	j.Preemptions = int(r.i64("preempts"))
	j.SubmitVia = r.sym("submit_via")
	j.GatewayID = r.sym("gateway_id")
	j.WorkflowID = r.sym("workflow_id")
	j.WorkflowEngine = r.sym("workflow_engine")
	j.EnsembleID = r.sym("ensemble_id")
	j.BrokerJobID = r.sym("broker_job_id")
	j.CoAllocID = r.sym("coalloc_id")
	j.ScienceField = r.sym("science_field")
	j.TruthModality = r.sym("truth")
	j.TruthCampaign = r.sym("truth_campaign")
	// A version 1 record leaves both wasted fields zero: every record a
	// decode fills is fresh.
	if r.ver >= wireVersion2 {
		j.WastedCoreSeconds = r.f64("wasted_core_s")
		j.WastedNUs = r.f64("wasted_nus")
	}
}

func appendTransferRecord(b []byte, tr *TransferRecord, t *job.Symbols) []byte {
	b = appendI64(b, tr.TransferID)
	b = appendSym(b, t, tr.Src)
	b = appendSym(b, t, tr.Dst)
	b = appendI64(b, tr.Bytes)
	b = appendF64(b, tr.Start)
	b = appendF64(b, tr.End)
	b = appendSym(b, t, tr.User)
	b = appendSym(b, t, tr.Project)
	b = appendI64(b, tr.JobID)
	return b
}

func (r *wireReader) transferRecord(t *TransferRecord) {
	t.TransferID = r.i64("transfer_id")
	t.Src = r.sym("src")
	t.Dst = r.sym("dst")
	t.Bytes = r.i64("bytes")
	t.Start = r.f64("start")
	t.End = r.f64("end")
	t.User = r.sym("user")
	t.Project = r.sym("project")
	t.JobID = r.i64("job_id")
}

func appendGatewayAttrRecord(b []byte, g *GatewayAttrRecord, t *job.Symbols) []byte {
	b = appendSym(b, t, g.GatewayID)
	b = appendSym(b, t, g.GatewayUser)
	b = appendI64(b, g.JobID)
	b = appendF64(b, g.At)
	return b
}

func (r *wireReader) gatewayAttrRecord(g *GatewayAttrRecord) {
	g.GatewayID = r.sym("gateway_id")
	g.GatewayUser = r.sym("gateway_user")
	g.JobID = r.i64("job_id")
	g.At = r.f64("at")
}

func appendStorageRecord(b []byte, s *StorageRecord, t *job.Symbols) []byte {
	b = appendSym(b, t, s.Site)
	b = appendSym(b, t, s.Project)
	b = appendI64(b, s.Bytes)
	b = appendF64(b, s.At)
	return b
}

func (r *wireReader) storageRecord(s *StorageRecord) {
	s.Site = r.sym("site")
	s.Project = r.sym("project")
	s.Bytes = r.i64("bytes")
	s.At = r.f64("at")
}

// zeroSyms spells out Sym 0, the only Sym a zero record holds.
var zeroSyms = job.NewSymbols()

// Smallest encoded record of each kind: a zero record, whose varints and
// string lengths take one byte each. count bounds record counts by them.
var (
	minJobWire = [...]int{
		wireVersion:  len(appendJobRecord(nil, &JobRecord{}, wireVersion, zeroSyms)),
		wireVersion2: len(appendJobRecord(nil, &JobRecord{}, wireVersion2, zeroSyms)),
	}
	minTransferWire    = len(appendTransferRecord(nil, &TransferRecord{}, zeroSyms))
	minGatewayAttrWire = len(appendGatewayAttrRecord(nil, &GatewayAttrRecord{}, zeroSyms))
	minStorageWire     = len(appendStorageRecord(nil, &StorageRecord{}, zeroSyms))
)

// AppendWire appends the packet's binary wire form to dst and returns the
// extended buffer. Record strings are written through p.Syms, so the
// bytes do not depend on Sym numbering. A buffer reused across packets stops allocating once it
// has grown to the largest packet's size hint.
func (p *Packet) AppendWire(dst []byte) []byte {
	// Size hint: jobs dominate real packets; ~200 bytes each is close
	// enough to avoid most growth copies.
	b := slices.Grow(dst, 64+200*len(p.Jobs)+64*len(p.Transfers)+
		48*len(p.GatewayAttrs)+48*len(p.Storage))
	// Version selection happens at encode time: only packets that actually
	// carry wasted-work data pay for (and signal) the v2 fields, keeping
	// fault-free packets byte-identical to the v1 codec.
	ver := wireVersion
	for i := range p.Jobs {
		if p.Jobs[i].WastedCoreSeconds != 0 || p.Jobs[i].WastedNUs != 0 {
			ver = wireVersion2
			break
		}
	}
	b = append(b, wireMagic...)
	b = append(b, ver)
	b = appendStr(b, p.Site)
	b = appendU64(b, p.Seq)
	b = appendF64(b, p.SentAt)
	b = appendU64(b, uint64(len(p.Jobs)))
	for i := range p.Jobs {
		b = appendJobRecord(b, &p.Jobs[i], ver, p.Syms)
	}
	b = appendU64(b, uint64(len(p.Transfers)))
	for i := range p.Transfers {
		b = appendTransferRecord(b, &p.Transfers[i], p.Syms)
	}
	b = appendU64(b, uint64(len(p.GatewayAttrs)))
	for i := range p.GatewayAttrs {
		b = appendGatewayAttrRecord(b, &p.GatewayAttrs[i], p.Syms)
	}
	b = appendU64(b, uint64(len(p.Storage)))
	for i := range p.Storage {
		b = appendStorageRecord(b, &p.Storage[i], p.Syms)
	}
	return b
}

// DecodePacket parses a packet in the binary wire form into a new Packet
// whose records index syms, the caller's table. It never panics on
// corrupt input: every failure wraps ErrBadPacket. It checks the whole
// packet before it interns a string, so a packet that fails leaves syms
// as it was.
func DecodePacket(data []byte, syms *job.Symbols) (*Packet, error) {
	p, r, err := checkPacket(data)
	if err != nil {
		return nil, err
	}
	r.intern(p, syms)
	return p, nil
}

// checkPacket decodes a packet without a table: every Sym of its records
// is SymNone until intern fills them in from the returned reader.
func checkPacket(data []byte) (*Packet, *wireReader, error) {
	r, err := newWireReader(data)
	if err != nil {
		return nil, nil, err
	}
	p := &Packet{}
	if err := r.packet(p); err != nil {
		return nil, nil, err
	}
	return p, &r, nil
}

// intern reads the records of the packet checkPacket decoded again, into
// the same slices, this time interning their strings into syms.
func (r *wireReader) intern(p *Packet, syms *job.Symbols) {
	r.off, r.syms = r.recsOff, syms
	r.records(p)
	p.Syms = syms
}

// packet decodes the body after the header into p and rejects trailing
// bytes.
func (r *wireReader) packet(p *Packet) error {
	p.Site = r.str("site")
	p.Seq = r.u64("seq")
	p.SentAt = r.f64("sent_at")
	r.recsOff = r.off
	r.records(p)
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadPacket, len(r.data)-r.off)
	}
	return nil
}

// records decodes the four record sections into p.
func (r *wireReader) records(p *Packet) {
	section(r, &p.Jobs, "jobs", minJobWire[r.ver], r.jobRecord)
	section(r, &p.Transfers, "transfers", minTransferWire, r.transferRecord)
	section(r, &p.GatewayAttrs, "gateway_attrs", minGatewayAttrWire, r.gatewayAttrRecord)
	section(r, &p.Storage, "storage", minStorageWire, r.storageRecord)
}

// section reads a record count and that many records into *recs. The
// first pass over a packet makes the slice, nil for none so a decoded
// packet holds nil where the encoded one did; intern's pass reads the same
// bytes into the slice the first pass made.
func section[T any](r *wireReader, recs *[]T, what string, minSize int, read func(*T)) {
	n := r.count(what, minSize)
	if *recs == nil && n > 0 {
		*recs = make([]T, n)
	}
	for i := range *recs {
		read(&(*recs)[i])
	}
}
