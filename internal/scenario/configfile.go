package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/metasched"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/users"
	"github.com/tgsim/tgmod/internal/workload"
)

// ConfigFile is the JSON-serializable form of a scenario configuration.
// Generators carry a type tag; durations are in seconds. It exists so
// experiments can be captured, shared, and replayed as files rather than
// code.
type ConfigFile struct {
	Seed              uint64          `json:"seed"`
	HorizonDays       float64         `json:"horizon_days"`
	DrainDays         float64         `json:"drain_days"`
	Policy            string          `json:"policy"`
	BrokerPolicy      string          `json:"broker_policy"`
	BrokerTagCoverage float64         `json:"broker_tag_coverage"`
	Users             users.Config    `json:"users"`
	AwardNUs          float64         `json:"award_nus"`
	Gateways          []GatewayConfig `json:"gateways"`
	ReportIntervalS   float64         `json:"report_interval_s"`
	MaintenanceEveryD float64         `json:"maintenance_every_days,omitempty"`
	MaintenanceHours  float64         `json:"maintenance_hours,omitempty"`
	Generators        []GeneratorSpec `json:"generators"`
}

// GeneratorSpec is one workload generator with a type tag. Params not used
// by a type are ignored.
type GeneratorSpec struct {
	Type string `json:"type"` // batch|ensemble|workflow|gateway|urgent|interactive|data|metasched

	JobsPerDay      float64 `json:"jobs_per_day,omitempty"`
	CampaignsPerDay float64 `json:"campaigns_per_day,omitempty"`
	RequestsPerDay  float64 `json:"requests_per_day,omitempty"`
	SessionsPerDay  float64 `json:"sessions_per_day,omitempty"`
	EventsPerWeek   float64 `json:"events_per_week,omitempty"`

	CapabilityFrac  float64 `json:"capability_frac,omitempty"`
	JobsPerCampaign int     `json:"jobs_per_campaign,omitempty"`
	TagCoverage     float64 `json:"tag_coverage,omitempty"`
	TaggedFrac      float64 `json:"tagged_frac,omitempty"`
	Workers         int     `json:"workers,omitempty"`
	Gateway         string  `json:"gateway,omitempty"`
	EndUsers        int     `json:"end_users,omitempty"`
	CoAllocFrac     float64 `json:"coalloc_frac,omitempty"`
	MedianInputGB   float64 `json:"median_input_gb,omitempty"`

	MedianRuntimeS float64 `json:"median_runtime_s,omitempty"`
}

// Encode writes the config file as indented JSON.
func (cf *ConfigFile) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cf)
}

// ErrBadConfig is the error every failure of DecodeConfigFile and
// ConfigFile.ToConfig wraps: malformed JSON, an unknown field, data after
// the configuration, or an unknown policy, broker policy or generator
// type. Run wraps it too when no site of the federation has an archive.
// Match with errors.Is(err, ErrBadConfig).
var ErrBadConfig = errors.New("scenario: bad config file")

// badConfig marks err as a config-file error and keeps its text.
type badConfig struct{ error }

func (e badConfig) Is(target error) bool { return target == ErrBadConfig }

func (e badConfig) Unwrap() error { return e.error }

// DecodeConfigFile parses a JSON scenario configuration: one JSON object,
// optionally followed by white space.
func DecodeConfigFile(r io.Reader) (*ConfigFile, error) {
	var cf ConfigFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cf); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: data after the configuration", ErrBadConfig)
	}
	return &cf, nil
}

// ToConfig materializes the runnable Config.
func (cf *ConfigFile) ToConfig() (Config, error) {
	var cfg Config
	pol, err := ParsePolicy(cf.Policy)
	if err != nil {
		return cfg, badConfig{err}
	}
	bpol, err := ParseBrokerPolicy(cf.BrokerPolicy)
	if err != nil {
		return cfg, badConfig{err}
	}
	cfg = Config{
		Seed:              cf.Seed,
		Horizon:           des.Time(cf.HorizonDays) * des.Day,
		DrainTime:         des.Time(cf.DrainDays) * des.Day,
		Policy:            pol,
		BrokerPolicy:      bpol,
		BrokerTagCoverage: cf.BrokerTagCoverage,
		Users:             cf.Users,
		AwardNUs:          cf.AwardNUs,
		Gateways:          cf.Gateways,
		ReportInterval:    des.Time(cf.ReportIntervalS),
		MaintenanceEvery:  des.Time(cf.MaintenanceEveryD) * des.Day,
		MaintenanceLength: des.Time(cf.MaintenanceHours) * des.Hour,
	}
	for i, gs := range cf.Generators {
		g, err := gs.build()
		if err != nil {
			return cfg, badConfig{fmt.Errorf("scenario: generator %d: %w", i, err)}
		}
		cfg.Generators = append(cfg.Generators, g)
	}
	return cfg, nil
}

func (gs *GeneratorSpec) build() (workload.Generator, error) {
	switch gs.Type {
	case "batch":
		return &workload.BatchGen{JobsPerDay: gs.JobsPerDay,
			CapabilityFrac: gs.CapabilityFrac, MedianRuntime: gs.MedianRuntimeS}, nil
	case "ensemble":
		return &workload.EnsembleGen{CampaignsPerDay: gs.CampaignsPerDay,
			JobsPerCampaign: gs.JobsPerCampaign, TagCoverage: gs.TagCoverage,
			MedianRuntime: gs.MedianRuntimeS}, nil
	case "workflow":
		return &workload.WorkflowGen{CampaignsPerDay: gs.CampaignsPerDay,
			TaggedFrac: gs.TaggedFrac, Workers: gs.Workers,
			MedianTask: gs.MedianRuntimeS}, nil
	case "gateway":
		return &workload.GatewayGen{Gateway: gs.Gateway,
			RequestsPerDay: gs.RequestsPerDay, EndUsers: gs.EndUsers,
			MedianRuntime: gs.MedianRuntimeS}, nil
	case "urgent":
		return &workload.UrgentGen{EventsPerWeek: gs.EventsPerWeek,
			MedianRuntime: gs.MedianRuntimeS}, nil
	case "interactive":
		return &workload.InteractiveGen{SessionsPerDay: gs.SessionsPerDay,
			MedianSession: gs.MedianRuntimeS}, nil
	case "data":
		return &workload.DataCentricGen{JobsPerDay: gs.JobsPerDay,
			MedianInputGB: gs.MedianInputGB, MedianRuntime: gs.MedianRuntimeS}, nil
	case "metasched":
		return &workload.MetaschedGen{JobsPerDay: gs.JobsPerDay,
			CoAllocFrac: gs.CoAllocFrac, MedianRuntime: gs.MedianRuntimeS}, nil
	default:
		return nil, fmt.Errorf("unknown generator type %q", gs.Type)
	}
}

// FromConfig captures a runnable Config back into its file form (the
// inverse of ToConfig for the generator types this package knows). A
// config that sets a field the file cannot carry is an error, not a dump
// that silently runs a different scenario.
func FromConfig(cfg Config) (*ConfigFile, error) {
	var lost string
	switch {
	case cfg.Faults.Enabled:
		lost = "Faults"
	case cfg.CheckpointRestart:
		lost = "CheckpointRestart"
	case cfg.Federation != nil:
		lost = "Federation"
	case cfg.EventLimit > 0:
		lost = "EventLimit"
	}
	if lost != "" {
		return nil, fmt.Errorf("scenario: %s has no file form", lost)
	}
	cf := &ConfigFile{
		Seed:              cfg.Seed,
		HorizonDays:       float64(cfg.Horizon / des.Day),
		DrainDays:         float64(cfg.DrainTime / des.Day),
		Policy:            cfg.Policy,
		BrokerPolicy:      cfg.BrokerPolicy.String(),
		BrokerTagCoverage: cfg.BrokerTagCoverage,
		Users:             cfg.Users,
		AwardNUs:          cfg.AwardNUs,
		Gateways:          cfg.Gateways,
		ReportIntervalS:   float64(cfg.ReportInterval),
		MaintenanceEveryD: float64(cfg.MaintenanceEvery / des.Day),
		MaintenanceHours:  float64(cfg.MaintenanceLength / des.Hour),
	}
	for _, g := range cfg.Generators {
		switch gg := g.(type) {
		case *workload.BatchGen:
			cf.Generators = append(cf.Generators, GeneratorSpec{Type: "batch",
				JobsPerDay: gg.JobsPerDay, CapabilityFrac: gg.CapabilityFrac,
				MedianRuntimeS: gg.MedianRuntime})
		case *workload.EnsembleGen:
			cf.Generators = append(cf.Generators, GeneratorSpec{Type: "ensemble",
				CampaignsPerDay: gg.CampaignsPerDay, JobsPerCampaign: gg.JobsPerCampaign,
				TagCoverage: gg.TagCoverage, MedianRuntimeS: gg.MedianRuntime})
		case *workload.WorkflowGen:
			cf.Generators = append(cf.Generators, GeneratorSpec{Type: "workflow",
				CampaignsPerDay: gg.CampaignsPerDay, TaggedFrac: gg.TaggedFrac,
				Workers: gg.Workers, MedianRuntimeS: gg.MedianTask})
		case *workload.GatewayGen:
			cf.Generators = append(cf.Generators, GeneratorSpec{Type: "gateway",
				Gateway: gg.Gateway, RequestsPerDay: gg.RequestsPerDay,
				EndUsers: gg.EndUsers, MedianRuntimeS: gg.MedianRuntime})
		case *workload.UrgentGen:
			cf.Generators = append(cf.Generators, GeneratorSpec{Type: "urgent",
				EventsPerWeek: gg.EventsPerWeek, MedianRuntimeS: gg.MedianRuntime})
		case *workload.InteractiveGen:
			cf.Generators = append(cf.Generators, GeneratorSpec{Type: "interactive",
				SessionsPerDay: gg.SessionsPerDay, MedianRuntimeS: gg.MedianSession})
		case *workload.DataCentricGen:
			cf.Generators = append(cf.Generators, GeneratorSpec{Type: "data",
				JobsPerDay: gg.JobsPerDay, MedianInputGB: gg.MedianInputGB,
				MedianRuntimeS: gg.MedianRuntime})
		case *workload.MetaschedGen:
			cf.Generators = append(cf.Generators, GeneratorSpec{Type: "metasched",
				JobsPerDay: gg.JobsPerDay, CoAllocFrac: gg.CoAllocFrac,
				MedianRuntimeS: gg.MedianRuntime})
		default:
			return nil, fmt.Errorf("scenario: generator %T has no file form", g)
		}
	}
	return cf, nil
}

// ParsePolicy validates a policy engine name against the sched registry
// and returns its canonical form ("" defaults to "easy").
func ParsePolicy(s string) (string, error) {
	if s == "" {
		return "easy", nil
	}
	if _, err := sched.NewEngine(s); err != nil {
		return "", fmt.Errorf("scenario: unknown policy %q (have %v)", s, sched.EngineNames())
	}
	return s, nil
}

// ParseBrokerPolicy converts a broker policy name to its constant.
func ParseBrokerPolicy(s string) (metasched.SelectPolicy, error) {
	switch s {
	case "random":
		return metasched.Random, nil
	case "least-loaded":
		return metasched.LeastLoaded, nil
	case "best-estimated", "":
		return metasched.BestEstimated, nil
	case "data-aware":
		return metasched.DataAware, nil
	default:
		return 0, fmt.Errorf("scenario: unknown broker policy %q", s)
	}
}
