package accounting

import (
	"github.com/tgsim/tgmod/internal/job"
	"reflect"
	"testing"
)

// samplePacket returns a packet of every record kind, its records indexing
// a fresh table.
func samplePacket() *Packet {
	syms := job.NewSymbols()
	s := syms.Intern
	return &Packet{
		Site: "ridge", Seq: 42, SentAt: 86400.5, Syms: syms,
		Jobs: []JobRecord{
			{
				JobID: 1, Name: s("hero"), User: s("alice"), Project: s("TG-AST001"),
				Site: s("ridge"), Machine: s("ridge-xt"), Queue: s("batch"),
				Cores: 65536, SubmitTime: 100, StartTime: 250.25, EndTime: 9999.75,
				WallSeconds: 9749.5, CoreSeconds: 6.39e8, NUs: 514000.125,
				QOS: job.SymNormal, ExitStatus: job.SymCompleted, Preemptions: 2,
				SubmitVia: job.SymGateway, GatewayID: s("nanohub"), WorkflowID: s("wf-9"),
				WorkflowEngine: s("pegasus"), EnsembleID: s("ens-3"), BrokerJobID: s("bk-7"),
				CoAllocID: s("ca-1"), ScienceField: s("nanoscience"),
				TruthModality: job.SymGateway, TruthCampaign: s("c-12"),
			},
			{JobID: 2, Name: job.SymNone, User: s("bob"), Project: s("p"), Site: s("ridge"),
				Machine: s("ridge-xt"), Queue: s("batch"), Cores: 1},
		},
		Transfers: []TransferRecord{
			{TransferID: 7, Src: s("ridge"), Dst: s("mesa"), Bytes: 1 << 40,
				Start: 10, End: 20, User: s("alice"), Project: s("TG-AST001"), JobID: 1},
		},
		GatewayAttrs: []GatewayAttrRecord{
			{GatewayID: s("nanohub"), GatewayUser: s("student-77"), JobID: 1, At: 100},
		},
		Storage: []StorageRecord{
			{Site: s("ridge"), Project: s("TG-AST001"), Bytes: 123456789, At: 86400},
		},
	}
}

func TestWireRoundTrip(t *testing.T) {
	p := samplePacket()
	data := p.AppendWire(nil)
	n := p.Syms.Len()
	got, err := DecodePacket(data, p.Syms)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", p, got)
	}
	if p.Syms.Len() != n {
		t.Errorf("decoding into the encoding table grew it from %d to %d strings", n, p.Syms.Len())
	}
}

func TestWireEmptyPacket(t *testing.T) {
	p := &Packet{Site: "s", Seq: 1, SentAt: 0, Syms: job.NewSymbols()}
	data := p.AppendWire(nil)
	got, err := DecodePacket(data, p.Syms)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", p, got)
	}
}

func TestWireDeterministic(t *testing.T) {
	a := samplePacket().AppendWire(nil)
	b := samplePacket().AppendWire(nil)
	if string(a) != string(b) {
		t.Fatal("identical packets encoded differently")
	}
}

func TestDecodeCorruptPacket(t *testing.T) {
	data := samplePacket().AppendWire(nil)
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("XXX\x01rest"),
		"bad version": append([]byte(wireMagic), 99),
		"truncated":   data[:len(data)/2],
		"trailing":    append(append([]byte{}, data...), 0xaa),
		"json":        []byte("{broken"),
		"huge count":  append(append([]byte(wireMagic), wireVersion, 0x01, 's'), 0xff, 0xff, 0xff, 0x7f),
	}
	for name, d := range cases {
		if _, err := DecodePacket(d, job.NewSymbols()); err == nil {
			t.Errorf("%s: decode succeeded on corrupt input", name)
		}
	}
}

func BenchmarkWireRoundTrip(b *testing.B) {
	// The acct-flush hot path: encode then decode a realistic packet.
	p := samplePacket()
	for i := 0; i < 60; i++ {
		p.Jobs = append(p.Jobs, p.Jobs[0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := p.AppendWire(nil)
		if _, err := DecodePacket(data, p.Syms); err != nil {
			b.Fatal(err)
		}
	}
}
