package accounting

import (
	"bytes"
	"errors"
	"fmt"
	"github.com/tgsim/tgmod/internal/job"
	"math"
	"reflect"
	"testing"
)

// wastedPacket carries nonzero wasted-work fields, forcing the v2 wire form.
func wastedPacket() *Packet {
	p := samplePacket()
	p.Jobs[0].WastedCoreSeconds = 12800.5
	p.Jobs[0].WastedNUs = 3.5
	return p
}

func TestWireV2RoundTrip(t *testing.T) {
	p := wastedPacket()
	data := p.AppendWire(nil)
	if data[len(wireMagic)] != wireVersion2 {
		t.Fatalf("packet with wasted work encoded as version %d, want %d",
			data[len(wireMagic)], wireVersion2)
	}
	got, err := DecodePacket(data, p.Syms)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("v2 round trip mismatch:\nin:  %+v\nout: %+v", p, got)
	}
}

func TestWireV1ByteStableWithoutWaste(t *testing.T) {
	// Fault-free packets (all wasted fields zero) must keep the exact v1
	// encoding: the determinism gate compares wire byte counters across runs.
	data := samplePacket().AppendWire(nil)
	if data[len(wireMagic)] != wireVersion {
		t.Fatalf("fault-free packet encoded as version %d, want %d",
			data[len(wireMagic)], wireVersion)
	}
}

// Every prefix of a valid packet must fail with ErrBadPacket — typed, never
// a panic, never a silent success.
func TestDecodeTruncationsReturnTypedError(t *testing.T) {
	for _, p := range []*Packet{samplePacket(), wastedPacket()} {
		data := p.AppendWire(nil)
		for n := 0; n < len(data); n++ {
			_, derr := DecodePacket(data[:n], job.NewSymbols())
			if derr == nil {
				t.Fatalf("decode of %d/%d-byte prefix succeeded", n, len(data))
			}
			if !errors.Is(derr, ErrBadPacket) {
				t.Fatalf("prefix %d: error %v does not wrap ErrBadPacket", n, derr)
			}
		}
	}
}

// FuzzDecodePacket drives arbitrary bytes through the packet decoder. The
// invariant under test: DecodePacket never panics, and every failure wraps
// the typed ErrBadPacket so callers can match it. Successful decodes must
// re-encode and decode again to the same packet (the codec is a bijection on
// its image), whatever table each decode interns into: the second decode
// goes into a table that already holds other strings, so its Sym numbers
// differ from the first's.
func FuzzDecodePacket(f *testing.F) {
	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePacket(data, job.NewSymbols())
		if err != nil {
			if !errors.Is(err, ErrBadPacket) {
				t.Fatalf("error %v does not wrap ErrBadPacket", err)
			}
			return
		}
		// Successful decode: the packet must survive a re-encode round trip.
		re := p.AppendWire(nil)
		other := job.NewSymbols()
		other.Intern("an earlier run's string")
		q, err := DecodePacket(re, other)
		if err != nil {
			t.Fatalf("decode of re-encoded packet failed: %v", err)
		}
		if !sameBits(p, q) {
			t.Fatalf("re-encode round trip mismatch:\n%+v\n%+v", p, q)
		}
	})
}

// addWireSeeds seeds a packet fuzzer with valid packets of both versions,
// repeated JobIDs, a NaN field, and truncated, trailing and garbage inputs.
func addWireSeeds(f *testing.F) {
	v1 := samplePacket().AppendWire(nil)
	v2 := wastedPacket().AppendWire(nil)
	withNaN := samplePacket()
	// JobID 77 is not in priorCentral, so FuzzIngestWire keeps the record.
	withNaN.Jobs[1].JobID, withNaN.Jobs[1].CoreSeconds = 77, math.NaN()
	nan := withNaN.AppendWire(nil)
	f.Add(nan)
	repeat := samplePacket()
	repeat.Jobs = append(repeat.Jobs, repeat.Jobs[0])
	rep := repeat.AppendWire(nil)
	empty := (&Packet{Site: "s", Seq: 1}).AppendWire(nil)
	f.Add(v1)
	f.Add(v2)
	f.Add(rep)
	f.Add(empty)
	f.Add(v1[:len(v1)/2])
	f.Add(v2[:len(v2)-3])
	f.Add([]byte{})
	f.Add([]byte("TGP"))
	f.Add([]byte("TGP\x01"))
	f.Add([]byte("TGP\x02\x00"))
	f.Add([]byte("TGP\x63junk"))
	f.Add([]byte("{\"site\":"))
	f.Add(append(append([]byte{}, v1...), 0xaa))
}

// refCentral is the append-only reference FuzzIngestWire holds Central
// to: the per-site sequence rule, keep-first JobID dedup, and plain
// appends.
type refCentral struct {
	seen       map[string]uint64
	ids        map[int64]bool
	records    Packet // every record kept, in arrival order
	duplicates uint64
}

func (m *refCentral) ingest(p *Packet) error {
	last := m.seen[p.Site]
	switch {
	case p.Seq <= last:
		m.duplicates++
		return nil
	case p.Seq != last+1:
		return fmt.Errorf("accounting: site %s packet gap: got seq %d, want %d", p.Site, p.Seq, last+1)
	}
	m.seen[p.Site] = p.Seq
	for _, r := range p.Jobs {
		if m.ids[r.JobID] {
			m.duplicates++
			continue
		}
		m.ids[r.JobID] = true
		m.records.Jobs = append(m.records.Jobs, r)
	}
	m.records.Transfers = append(m.records.Transfers, p.Transfers...)
	m.records.GatewayAttrs = append(m.records.GatewayAttrs, p.GatewayAttrs...)
	m.records.Storage = append(m.records.Storage, p.Storage...)
	return nil
}

// priorCentral builds the state FuzzIngestWire ingests into, together
// with its reference and the packets ingested: site "ridge" up to seq 41,
// so the seed packets (seq 42) are next in sequence; site "s" up to seq
// 3, so a seq-1 packet is a re-delivery; and JobID 1, which the seed
// packets repeat. Seqs 20 and 30 carry a negative and a far JobID, so the
// index holds IDs both in its dense slice and in its map.
func priorCentral(t testing.TB) (*Central, *refCentral, []*Packet) {
	c := NewCentral(nil)
	syms := c.Syms()
	ref := &refCentral{seen: map[string]uint64{}, ids: map[int64]bool{}}
	ref.records.Syms = syms
	var packets []*Packet
	for seq := uint64(1); seq <= 41; seq++ {
		id := int64(seq) % 40
		switch seq {
		case 20:
			id = -20
		case 30:
			id = 1 << 40
		}
		packets = append(packets, &Packet{Site: "ridge", Seq: seq, Syms: syms, Jobs: []JobRecord{
			{JobID: id, Site: syms.Intern("ridge"), Machine: syms.Intern("ridge-xt"), NUs: float64(seq)},
		}})
	}
	for seq := uint64(1); seq <= 3; seq++ {
		packets = append(packets, &Packet{Site: "s", Seq: seq, Syms: syms,
			Storage: []StorageRecord{{Site: syms.Intern("s"), Project: syms.Intern("p"), Bytes: int64(seq)}}})
	}
	for _, p := range packets {
		if err := c.Ingest(p); err != nil {
			t.Fatal(err)
		}
		if err := ref.ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.ids.dense) == 0 || len(c.ids.far) != 2 {
		t.Fatalf("prior index has %d dense slots and %d map entries, want some and 2", len(c.ids.dense), len(c.ids.far))
	}
	return c, ref, packets
}

// sameBits reports whether two packets have the same wire form. The codec
// keeps every float's bits, so unlike reflect.DeepEqual this holds a NaN
// the input carried equal to itself.
func sameBits(a, b *Packet) bool { return bytes.Equal(a.AppendWire(nil), b.AppendWire(nil)) }

// recordsOf gathers everything Central stores into one packet, read
// through At and the record runs.
func recordsOf(c *Central) *Packet {
	p := &Packet{Transfers: flat(c.Transfers()), GatewayAttrs: flat(c.GatewayAttrs()),
		Storage: flat(c.StorageRecords()), Syms: c.syms}
	for i := 0; i < c.Len(); i++ {
		p.Jobs = append(p.Jobs, *c.At(i))
	}
	return p
}

// flat joins runs into one slice, nil when they hold no record.
func flat[T any](rs Runs[T]) []T {
	var out []T
	for _, r := range rs {
		out = append(out, r...)
	}
	return out
}

// values copies the records a pointer table points at.
func values(rs []*JobRecord) []JobRecord {
	var out []JobRecord
	for _, r := range rs {
		out = append(out, *r)
	}
	return out
}

// FuzzIngestWire is the differential check of the borrowing ingest of
// wire input: for any packet DecodePacket accepts, Ingest into a Central
// with prior state must return the reference's error, keep the
// reference's records bit for bit, and never change the packet it
// borrowed from, neither on ingest nor on a read. IngestWire of the same
// bytes must agree with Ingest, and leave the table as it was when it
// rejects them or skips them as a re-delivery.
func FuzzIngestWire(f *testing.F) {
	addWireSeeds(f)
	for _, seq := range []uint64{1, 3, 41, 43, 50} {
		p := samplePacket()
		p.Seq = seq
		data := p.AppendWire(nil)
		f.Add(data)
	}
	redelivery := (&Packet{Site: "s", Seq: 1, Jobs: []JobRecord{{JobID: 900}}, Syms: job.NewSymbols()}).AppendWire(nil)
	f.Add(redelivery)

	f.Fuzz(func(t *testing.T, data []byte) {
		w, _, _ := priorCentral(t)
		n := w.Syms().Len()
		wp, wErr := w.IngestWire(data)
		if wp == nil && w.Syms().Len() != n {
			t.Fatalf("IngestWire rejected the packet (%v) but grew the table from %d to %d strings", wErr, n, w.Syms().Len())
		}
		c, ref, prior := priorCentral(t)
		p, err := DecodePacket(data, c.Syms())
		if err != nil {
			if wErr == nil {
				t.Fatalf("IngestWire accepted bytes DecodePacket rejects: %v", err)
			}
			return
		}
		q, err := DecodePacket(data, c.Syms())
		if err != nil {
			t.Fatalf("second decode: %v", err)
		}
		gotErr, wantErr := c.Ingest(p), ref.ingest(q)
		if (wantErr == nil) != (gotErr == nil) ||
			wantErr != nil && wantErr.Error() != gotErr.Error() {
			t.Fatalf("Ingest error %v, reference %v", gotErr, wantErr)
		}
		if (wErr == nil) != (gotErr == nil) || wErr != nil && wErr.Error() != gotErr.Error() {
			t.Fatalf("IngestWire error %v, Ingest %v", wErr, gotErr)
		}
		if !sameBits(recordsOf(w), &ref.records) {
			t.Fatalf("IngestWire keeps other records than the reference:\ngot:  %+v\nwant: %+v", recordsOf(w), &ref.records)
		}
		if !sameBits(p, q) {
			t.Fatal("Ingest changed the packet")
		}
		if !sameBits(recordsOf(c), &ref.records) {
			t.Fatalf("Central holds other records than the reference:\ngot:  %+v\nwant: %+v", recordsOf(c), &ref.records)
		}
		if !sameBits(p, q) {
			t.Fatal("reading the records changed the packet")
		}
		if c.Duplicates() != ref.duplicates {
			t.Fatalf("Duplicates = %d, reference %d", c.Duplicates(), ref.duplicates)
		}
		for i, r := range ref.records.Jobs {
			if j, ok := c.ids.get(r.JobID); !ok || j != i {
				t.Fatalf("JobID %d indexed at %d (%v), want %d", r.JobID, j, ok, i)
			}
		}
		_, _, again := priorCentral(t)
		for i := range prior {
			if !sameBits(prior[i], again[i]) {
				t.Fatalf("prior packet %d changed", i)
			}
		}
	})
}
