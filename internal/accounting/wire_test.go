package accounting

import (
	"reflect"
	"testing"
)

func samplePacket() *Packet {
	return &Packet{
		Site: "ridge", Seq: 42, SentAt: 86400.5,
		Jobs: []JobRecord{
			{
				JobID: 1, Name: "hero", User: "alice", Project: "TG-AST001",
				Site: "ridge", Machine: "ridge-xt", Queue: "batch",
				Cores: 65536, SubmitTime: 100, StartTime: 250.25, EndTime: 9999.75,
				WallSeconds: 9749.5, CoreSeconds: 6.39e8, NUs: 514000.125,
				QOS: "normal", ExitStatus: "completed", Preemptions: 2,
				SubmitVia: "gateway", GatewayID: "nanohub", WorkflowID: "wf-9",
				WorkflowEngine: "pegasus", EnsembleID: "ens-3", BrokerJobID: "bk-7",
				CoAllocID: "ca-1", ScienceField: "nanoscience",
				TruthModality: "gateway", TruthCampaign: "c-12",
			},
			{JobID: 2, Name: "", User: "bob", Project: "p", Site: "ridge",
				Machine: "ridge-xt", Queue: "batch", Cores: 1},
		},
		Transfers: []TransferRecord{
			{TransferID: 7, Src: "ridge", Dst: "mesa", Bytes: 1 << 40,
				Start: 10, End: 20, User: "alice", Project: "TG-AST001", JobID: 1},
		},
		GatewayAttrs: []GatewayAttrRecord{
			{GatewayID: "nanohub", GatewayUser: "student-77", JobID: 1, At: 100},
		},
		Storage: []StorageRecord{
			{Site: "ridge", Project: "TG-AST001", Bytes: 123456789, At: 86400},
		},
	}
}

func TestWireRoundTrip(t *testing.T) {
	p := samplePacket()
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePacket(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", p, got)
	}
}

func TestWireEmptyPacket(t *testing.T) {
	p := &Packet{Site: "s", Seq: 1, SentAt: 0}
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePacket(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", p, got)
	}
}

func TestWireDeterministic(t *testing.T) {
	a, _ := samplePacket().Encode()
	b, _ := samplePacket().Encode()
	if string(a) != string(b) {
		t.Fatal("identical packets encoded differently")
	}
}

func TestDecodeCorruptPacket(t *testing.T) {
	data, _ := samplePacket().Encode()
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
		if _, err := DecodePacket(d); err == nil {
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
		data, err := p.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodePacket(data); err != nil {
			b.Fatal(err)
		}
	}
}
