package accounting

import (
	"bytes"
	"errors"
	"maps"
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
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if data[len(wireMagic)] != wireVersion2 {
		t.Fatalf("packet with wasted work encoded as version %d, want %d",
			data[len(wireMagic)], wireVersion2)
	}
	got, err := DecodePacket(data)
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
	data, err := samplePacket().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if data[len(wireMagic)] != wireVersion {
		t.Fatalf("fault-free packet encoded as version %d, want %d",
			data[len(wireMagic)], wireVersion)
	}
}

// Every prefix of a valid packet must fail with ErrBadPacket — typed, never
// a panic, never a silent success.
func TestDecodeTruncationsReturnTypedError(t *testing.T) {
	for _, p := range []*Packet{samplePacket(), wastedPacket()} {
		data, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(data); n++ {
			_, derr := DecodePacket(data[:n])
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
// its image).
func FuzzDecodePacket(f *testing.F) {
	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePacket(data)
		if err != nil {
			if !errors.Is(err, ErrBadPacket) {
				t.Fatalf("error %v does not wrap ErrBadPacket", err)
			}
			return
		}
		// Successful decode: the packet must survive a re-encode round trip.
		re, err := p.Encode()
		if err != nil {
			t.Fatalf("re-encode of decoded packet failed: %v", err)
		}
		q, err := DecodePacket(re)
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
	v1, _ := samplePacket().Encode()
	v2, _ := wastedPacket().Encode()
	withNaN := samplePacket()
	// JobID 77 is not in priorCentral, so FuzzIngestWire keeps the record.
	withNaN.Jobs[1].JobID, withNaN.Jobs[1].CoreSeconds = 77, math.NaN()
	nan, _ := withNaN.Encode()
	f.Add(nan)
	repeat := samplePacket()
	repeat.Jobs = append(repeat.Jobs, repeat.Jobs[0])
	rep, _ := repeat.Encode()
	empty, _ := (&Packet{Site: "s", Seq: 1}).Encode()
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

// priorCentral builds the state FuzzIngestWire ingests into: site "ridge"
// up to seq 41, so the seed packets (seq 42) are next in sequence; site
// "s" up to seq 3, so a seq-1 packet is a re-delivery; and JobID 1, which
// the seed packets repeat. wire selects the ingest path. Reads after seq
// 10 and 30 seal the records so far, so the database ends with a sealed
// prefix and pending records in its live chunks.
func priorCentral(t testing.TB, wire bool) *Central {
	c := NewCentral()
	var packets []*Packet
	for seq := uint64(1); seq <= 41; seq++ {
		packets = append(packets, &Packet{Site: "ridge", Seq: seq, Jobs: []JobRecord{
			{JobID: int64(seq) % 40, Site: "ridge", Machine: "ridge-xt", NUs: float64(seq)},
		}})
	}
	for seq := uint64(1); seq <= 3; seq++ {
		packets = append(packets, &Packet{Site: "s", Seq: seq,
			Storage: []StorageRecord{{Site: "s", Project: "p", Bytes: int64(seq)}}})
	}
	for _, p := range packets {
		var err error
		if wire {
			err = c.IngestWire(p.AppendWire(nil))
		} else {
			err = c.Ingest(p)
		}
		if err != nil {
			t.Fatal(err)
		}
		if p.Seq == 10 || p.Seq == 30 {
			c.Jobs()
		}
	}
	if c.live.Len() == 0 {
		t.Fatal("prior state has no pending records")
	}
	return c
}

// sameBits reports whether two packets have the same wire form. The codec
// keeps every float's bits, so unlike reflect.DeepEqual this holds a NaN
// the input carried equal to itself.
func sameBits(a, b *Packet) bool { return bytes.Equal(a.AppendWire(nil), b.AppendWire(nil)) }

// centralState is a deep copy of everything Central stores, read through
// Jobs (which seals the live records). The records are kept in wire form,
// so comparing states is bit-exact, as sameBits is.
type centralState struct {
	records    []byte
	jobIndex   map[int64]int
	seen       map[string]uint64
	duplicates uint64
}

func stateOf(c *Central) centralState {
	records := &Packet{Jobs: c.Jobs(), Transfers: c.transfers, GatewayAttrs: c.gatewayAttrs, Storage: c.storage}
	return centralState{
		records:    records.AppendWire(nil),
		jobIndex:   maps.Clone(c.jobIndex),
		seen:       maps.Clone(c.seen),
		duplicates: c.duplicates,
	}
}

// zeroTail reports whether Central holds only zero values behind the end
// of its records: in the spare capacity of every record slice and in every
// slot of the live chunks past the pending records. Rejected and
// de-duplicated records must not linger there.
func zeroTail(c *Central) bool {
	for i := c.live.Len(); i < len(c.live.chunks)*chunkSize; i++ {
		if *c.live.At(i) != (JobRecord{}) {
			return false
		}
	}
	return zeroSpare(c.jobs) && zeroSpare(c.transfers) && zeroSpare(c.gatewayAttrs) && zeroSpare(c.storage)
}

// zeroSpare reports whether the spare capacity of s holds only zero values.
func zeroSpare[T comparable](s []T) bool {
	var zero T
	for _, v := range s[len(s):cap(s)] {
		if v != zero {
			return false
		}
	}
	return true
}

// FuzzIngestWire is the differential check of the direct-decode ingest
// path: for any input, IngestWire must leave Central exactly as the
// reference DecodePacket plus Ingest does, return the same error, and
// change nothing when it fails.
func FuzzIngestWire(f *testing.F) {
	addWireSeeds(f)
	for _, seq := range []uint64{1, 3, 41, 43, 50} {
		p := samplePacket()
		p.Seq = seq
		data, _ := p.Encode()
		f.Add(data)
	}
	redelivery, _ := (&Packet{Site: "s", Seq: 1, Jobs: []JobRecord{{JobID: 900}}}).Encode()
	f.Add(redelivery)

	before := stateOf(priorCentral(f, true))
	if !reflect.DeepEqual(stateOf(priorCentral(f, false)), before) {
		f.Fatal("prior states differ between Ingest and IngestWire")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, got := priorCentral(t, false), priorCentral(t, true)

		var wantErr error
		if p, err := DecodePacket(data); err != nil {
			wantErr = err
		} else {
			wantErr = ref.Ingest(p)
		}
		gotErr := got.IngestWire(data)
		if (wantErr == nil) != (gotErr == nil) ||
			wantErr != nil && wantErr.Error() != gotErr.Error() {
			t.Fatalf("IngestWire error %v, reference %v", gotErr, wantErr)
		}
		if errors.Is(wantErr, ErrBadPacket) != errors.Is(gotErr, ErrBadPacket) {
			t.Fatalf("IngestWire error %v and reference %v differ in kind", gotErr, wantErr)
		}
		// Check the live chunks before stateOf seals them away.
		if !zeroTail(got) {
			t.Fatal("IngestWire left records behind the end of the store")
		}
		if !reflect.DeepEqual(stateOf(ref), stateOf(got)) {
			t.Fatalf("state after IngestWire differs from the reference path:\nwire: %+v\nref:  %+v",
				stateOf(got), stateOf(ref))
		}
		if gotErr != nil && !reflect.DeepEqual(before, stateOf(got)) {
			t.Fatalf("failed IngestWire (%v) changed Central", gotErr)
		}
		if !zeroTail(got) {
			t.Fatal("sealing left records behind the end of the store")
		}
	})
}
