package scenario

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/metasched"
)

func TestConfigFileRoundTrip(t *testing.T) {
	orig := DefaultConfig(42)
	orig.MaintenanceEvery = 0
	cf, err := FromConfig(orig)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cf.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := DecodeConfigFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parsed.ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != orig.Seed || back.Horizon != orig.Horizon ||
		back.Policy != orig.Policy || back.BrokerPolicy != orig.BrokerPolicy {
		t.Errorf("scalar fields lost: %+v vs %+v", back.Seed, orig.Seed)
	}
	if len(back.Generators) != len(orig.Generators) {
		t.Fatalf("generators: %d vs %d", len(back.Generators), len(orig.Generators))
	}
	if len(back.Gateways) != len(orig.Gateways) {
		t.Fatalf("gateways: %d vs %d", len(back.Gateways), len(orig.Gateways))
	}
	// Generator types preserved in order.
	for i := range back.Generators {
		if back.Generators[i].Name() != orig.Generators[i].Name() {
			t.Errorf("generator %d: %s vs %s", i,
				back.Generators[i].Name(), orig.Generators[i].Name())
		}
	}
}

func TestConfigFileRunsIdenticallyToCode(t *testing.T) {
	maint := smallConfig(5)
	WithMaintenance(3*des.Day, 4*des.Hour)(&maint)
	var executed []uint64
	for _, code := range []Config{smallConfig(5), maint} {
		cf, err := FromConfig(code)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cf.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		parsed, err := DecodeConfigFile(&buf)
		if err != nil {
			t.Fatal(err)
		}
		fromFile, err := parsed.ToConfig()
		if err != nil {
			t.Fatal(err)
		}
		a, err := Run(code)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(fromFile)
		if err != nil {
			t.Fatal(err)
		}
		var accA, accB bytes.Buffer
		if err := a.Central.Export(&accA); err != nil {
			t.Fatal(err)
		}
		if err := b.Central.Export(&accB); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(accA.Bytes(), accB.Bytes()) || a.Kernel.Executed() != b.Kernel.Executed() {
			t.Errorf("maintenance every %v: file round trip changed the simulation: %v/%d/%d vs %v/%d/%d",
				code.MaintenanceEvery, a.Central.TotalNUs(), a.Central.Len(), a.Kernel.Executed(),
				b.Central.TotalNUs(), b.Central.Len(), b.Kernel.Executed())
		}
		executed = append(executed, a.Kernel.Executed())
	}
	// The maintenance input must reach the run, or its round trip shows nothing.
	if executed[0] == executed[1] {
		t.Errorf("maintenance left the run unchanged: %d events both ways", executed[0])
	}
}

func TestDecodeConfigFileErrors(t *testing.T) {
	for name, in := range map[string]string{
		"garbage":       "{bad",
		"unknown field": `{"unknown_field": 1}`,
		"trailing data": `{"seed": 1} {"seed": 2}`,
	} {
		if _, err := DecodeConfigFile(strings.NewReader(in)); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: error %v, want ErrBadConfig", name, err)
		}
	}
	if _, err := DecodeConfigFile(strings.NewReader("{\"seed\": 1}\n\t ")); err != nil {
		t.Errorf("trailing white space rejected: %v", err)
	}
	for name, cf := range map[string]*ConfigFile{
		"unknown policy":        {Policy: "martian"},
		"unknown broker policy": {Policy: "easy", BrokerPolicy: "martian"},
		"unknown generator type": {Policy: "easy", BrokerPolicy: "random",
			Generators: []GeneratorSpec{{Type: "martian"}}},
	} {
		if _, err := cf.ToConfig(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: error %v, want ErrBadConfig", name, err)
		}
	}
}

// FuzzDecodeConfigFile drives arbitrary bytes through the -config file
// path. DecodeConfigFile and ToConfig never panic, every error wraps
// ErrBadConfig, and an accepted file re-encodes and decodes again to the
// same ConfigFile.
func FuzzDecodeConfigFile(f *testing.F) {
	for _, cfg := range []Config{DefaultConfig(42), smallConfig(5)} {
		cfg.MaintenanceEvery = 0
		cf, err := FromConfig(cfg)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cf.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	for _, s := range []string{
		"", "{}", "null", "[]", "{bad", `{"unknown_field": 1}`, `{"seed": 1} {"seed": 2}`,
		`{"seed": -1}`, `{"horizon_days": 1e400}`, `{"policy": "martian"}`,
		`{"generators": [{"type": "martian"}]}`, `{"generators": [null, {"type": "batch"}]}`,
		`{"users": {"projects": 3, "Projects": 4}}`, `{"SEED": 7, "gateways": null}`,
		`{"gateways": [{"ID": "\xff"}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := DecodeConfigFile(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("decode error %v does not wrap ErrBadConfig", err)
			}
			return
		}
		if _, err := cf.ToConfig(); err != nil && !errors.Is(err, ErrBadConfig) {
			t.Fatalf("ToConfig error %v does not wrap ErrBadConfig", err)
		}
		var buf bytes.Buffer
		if err := cf.Encode(&buf); err != nil {
			t.Fatalf("re-encode of an accepted file failed: %v", err)
		}
		back, err := DecodeConfigFile(&buf)
		if err != nil {
			t.Fatalf("decode of a re-encoded file failed: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(cf, back) {
			t.Fatalf("re-encode round trip mismatch:\n%+v\n%+v", cf, back)
		}
	})
}

// TestFromConfigRejectsFieldsWithoutFileForm: a dump that dropped faults
// or checkpointing would replay as a different, fault-free scenario, so
// FromConfig must refuse and name the field instead.
func TestFromConfigRejectsFieldsWithoutFileForm(t *testing.T) {
	fed, err := TG9()
	if err != nil {
		t.Fatal(err)
	}
	for field, opt := range map[string]Option{
		"Faults":            WithFaultIntensity(1),
		"CheckpointRestart": WithCheckpointRestart(15*des.Minute, 0),
		"Federation":        func(c *Config) { c.Federation = fed },
		"EventLimit":        func(c *Config) { c.EventLimit = 1000 },
	} {
		cfg := DefaultConfig(1)
		opt(&cfg)
		_, err := FromConfig(cfg)
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: FromConfig error = %v, want one naming the field", field, err)
		}
	}
}

func TestParsePolicies(t *testing.T) {
	for name, want := range map[string]string{
		"fcfs": "fcfs", "easy": "easy", "": "easy",
		"conservative": "conservative", "fairshare": "fairshare",
		"gang": "gang", "priority": "priority",
	} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v,%v", name, got, err)
		}
	}
	for name, want := range map[string]metasched.SelectPolicy{
		"random": metasched.Random, "least-loaded": metasched.LeastLoaded,
		"best-estimated": metasched.BestEstimated, "": metasched.BestEstimated,
		"data-aware": metasched.DataAware,
	} {
		got, err := ParseBrokerPolicy(name)
		if err != nil || got != want {
			t.Errorf("ParseBrokerPolicy(%q) = %v,%v", name, got, err)
		}
	}
}
