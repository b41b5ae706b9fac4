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
	data []byte
	off  int
	ver  byte
	err  error
}

// newWireReader checks the packet header (magic and version) and returns
// a reader positioned at the first field.
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

func (r *wireReader) str(what string) string {
	n := r.u64(what)
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail(what)
		return ""
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

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

func appendJobRecord(b []byte, j *JobRecord, ver byte) []byte {
	b = appendI64(b, j.JobID)
	b = appendStr(b, j.Name)
	b = appendStr(b, j.User)
	b = appendStr(b, j.Project)
	b = appendStr(b, j.Site)
	b = appendStr(b, j.Machine)
	b = appendStr(b, j.Queue)
	b = appendI64(b, int64(j.Cores))
	b = appendF64(b, j.SubmitTime)
	b = appendF64(b, j.StartTime)
	b = appendF64(b, j.EndTime)
	b = appendF64(b, j.WallSeconds)
	b = appendF64(b, j.CoreSeconds)
	b = appendF64(b, j.NUs)
	b = appendStr(b, j.QOS)
	b = appendStr(b, j.ExitStatus)
	b = appendI64(b, int64(j.Preemptions))
	b = appendStr(b, j.SubmitVia)
	b = appendStr(b, j.GatewayID)
	b = appendStr(b, j.WorkflowID)
	b = appendStr(b, j.WorkflowEngine)
	b = appendStr(b, j.EnsembleID)
	b = appendStr(b, j.BrokerJobID)
	b = appendStr(b, j.CoAllocID)
	b = appendStr(b, j.ScienceField)
	b = appendStr(b, j.TruthModality)
	b = appendStr(b, j.TruthCampaign)
	if ver >= wireVersion2 {
		b = appendF64(b, j.WastedCoreSeconds)
		b = appendF64(b, j.WastedNUs)
	}
	return b
}

func (r *wireReader) jobRecord(j *JobRecord) {
	j.JobID = r.i64("job_id")
	j.Name = r.str("name")
	j.User = r.str("user")
	j.Project = r.str("project")
	j.Site = r.str("site")
	j.Machine = r.str("machine")
	j.Queue = r.str("queue")
	j.Cores = int(r.i64("cores"))
	j.SubmitTime = r.f64("submit")
	j.StartTime = r.f64("start")
	j.EndTime = r.f64("end")
	j.WallSeconds = r.f64("wall_s")
	j.CoreSeconds = r.f64("core_s")
	j.NUs = r.f64("nus")
	j.QOS = r.str("qos")
	j.ExitStatus = r.str("exit")
	j.Preemptions = int(r.i64("preempts"))
	j.SubmitVia = r.str("submit_via")
	j.GatewayID = r.str("gateway_id")
	j.WorkflowID = r.str("workflow_id")
	j.WorkflowEngine = r.str("workflow_engine")
	j.EnsembleID = r.str("ensemble_id")
	j.BrokerJobID = r.str("broker_job_id")
	j.CoAllocID = r.str("coalloc_id")
	j.ScienceField = r.str("science_field")
	j.TruthModality = r.str("truth")
	j.TruthCampaign = r.str("truth_campaign")
	// A version 1 record leaves both wasted fields zero: every record a
	// decode fills is fresh.
	if r.ver >= wireVersion2 {
		j.WastedCoreSeconds = r.f64("wasted_core_s")
		j.WastedNUs = r.f64("wasted_nus")
	}
}

func appendTransferRecord(b []byte, t *TransferRecord) []byte {
	b = appendI64(b, t.TransferID)
	b = appendStr(b, t.Src)
	b = appendStr(b, t.Dst)
	b = appendI64(b, t.Bytes)
	b = appendF64(b, t.Start)
	b = appendF64(b, t.End)
	b = appendStr(b, t.User)
	b = appendStr(b, t.Project)
	b = appendI64(b, t.JobID)
	return b
}

func (r *wireReader) transferRecord(t *TransferRecord) {
	t.TransferID = r.i64("transfer_id")
	t.Src = r.str("src")
	t.Dst = r.str("dst")
	t.Bytes = r.i64("bytes")
	t.Start = r.f64("start")
	t.End = r.f64("end")
	t.User = r.str("user")
	t.Project = r.str("project")
	t.JobID = r.i64("job_id")
}

func appendGatewayAttrRecord(b []byte, g *GatewayAttrRecord) []byte {
	b = appendStr(b, g.GatewayID)
	b = appendStr(b, g.GatewayUser)
	b = appendI64(b, g.JobID)
	b = appendF64(b, g.At)
	return b
}

func (r *wireReader) gatewayAttrRecord(g *GatewayAttrRecord) {
	g.GatewayID = r.str("gateway_id")
	g.GatewayUser = r.str("gateway_user")
	g.JobID = r.i64("job_id")
	g.At = r.f64("at")
}

func appendStorageRecord(b []byte, s *StorageRecord) []byte {
	b = appendStr(b, s.Site)
	b = appendStr(b, s.Project)
	b = appendI64(b, s.Bytes)
	b = appendF64(b, s.At)
	return b
}

func (r *wireReader) storageRecord(s *StorageRecord) {
	s.Site = r.str("site")
	s.Project = r.str("project")
	s.Bytes = r.i64("bytes")
	s.At = r.f64("at")
}

// Smallest encoded record of each kind: a zero record, whose varints and
// string lengths take one byte each. count bounds record counts by them.
var (
	minJobWire = [...]int{
		wireVersion:  len(appendJobRecord(nil, &JobRecord{}, wireVersion)),
		wireVersion2: len(appendJobRecord(nil, &JobRecord{}, wireVersion2)),
	}
	minTransferWire    = len(appendTransferRecord(nil, &TransferRecord{}))
	minGatewayAttrWire = len(appendGatewayAttrRecord(nil, &GatewayAttrRecord{}))
	minStorageWire     = len(appendStorageRecord(nil, &StorageRecord{}))
)

// AppendWire appends the packet's binary wire form to dst and returns the
// extended buffer. A buffer reused across packets stops allocating once it
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
		b = appendJobRecord(b, &p.Jobs[i], ver)
	}
	b = appendU64(b, uint64(len(p.Transfers)))
	for i := range p.Transfers {
		b = appendTransferRecord(b, &p.Transfers[i])
	}
	b = appendU64(b, uint64(len(p.GatewayAttrs)))
	for i := range p.GatewayAttrs {
		b = appendGatewayAttrRecord(b, &p.GatewayAttrs[i])
	}
	b = appendU64(b, uint64(len(p.Storage)))
	for i := range p.Storage {
		b = appendStorageRecord(b, &p.Storage[i])
	}
	return b
}

// DecodePacket parses a packet in the binary wire form into a new Packet.
// It never panics on corrupt input: every failure wraps ErrBadPacket.
func DecodePacket(data []byte) (*Packet, error) {
	r, err := newWireReader(data)
	if err != nil {
		return nil, err
	}
	p := &Packet{}
	if err := r.packet(p); err != nil {
		return nil, err
	}
	return p, nil
}

// packet decodes the body after the header into p and rejects trailing
// bytes.
func (r *wireReader) packet(p *Packet) error {
	p.Site = r.str("site")
	p.Seq = r.u64("seq")
	p.SentAt = r.f64("sent_at")
	p.Jobs = records[JobRecord](r.count("jobs", minJobWire[r.ver]))
	for i := range p.Jobs {
		r.jobRecord(&p.Jobs[i])
	}
	p.Transfers = records[TransferRecord](r.count("transfers", minTransferWire))
	for i := range p.Transfers {
		r.transferRecord(&p.Transfers[i])
	}
	p.GatewayAttrs = records[GatewayAttrRecord](r.count("gateway_attrs", minGatewayAttrWire))
	for i := range p.GatewayAttrs {
		r.gatewayAttrRecord(&p.GatewayAttrs[i])
	}
	p.Storage = records[StorageRecord](r.count("storage", minStorageWire))
	for i := range p.Storage {
		r.storageRecord(&p.Storage[i])
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadPacket, len(r.data)-r.off)
	}
	return nil
}

// records returns n zero records, or nil for none, so a decoded packet
// holds nil where the encoded one did.
func records[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}
