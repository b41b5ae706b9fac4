package regress

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/obs"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/slo"
	"github.com/tgsim/tgmod/internal/telemetry"
	"github.com/tgsim/tgmod/internal/users"
	"github.com/tgsim/tgmod/internal/workload"
)

func TestParseOpenMetricsRoundTrip(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("tg_x_total", "Help with spaces.", "mod").With("a b").Add(3)
	reg.Gauge("tg_y", "", "k").With("v").Set(-1.5)
	reg.HistogramVec("tg_h", "h", "m").With("z").Observe(42)

	var sb strings.Builder
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ParseOpenMetrics(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got[`tg_x_total{mod="a b"}`] != 3 {
		t.Errorf("counter with spaced label value: %v", got)
	}
	if got[`tg_y{k="v"}`] != -1.5 {
		t.Errorf("gauge: %v", got)
	}
	// Histogram series (buckets, sum, count) all parse as plain samples.
	if got[`tg_h_count{m="z"}`] != 1 {
		t.Errorf("histogram count: %v", got)
	}
}

func TestParseOpenMetricsRejectsGarbage(t *testing.T) {
	for _, in := range []string{"tg_x\n", "tg_x notanumber\n", "tg_x 1\ntg_x 2\n"} {
		if _, err := ParseOpenMetrics(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestDiffAndTolerance(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 2, "gone": 5}
	b := map[string]float64{"x": 1, "y": 2.1, "new": 7}
	rep := Diff(a, b, Tolerance{})
	if rep.Empty() {
		t.Fatal("diff should not be empty")
	}
	if len(rep.Changed) != 1 || rep.Changed[0].Series != "y" {
		t.Errorf("Changed = %+v", rep.Changed)
	}
	if len(rep.Added) != 1 || rep.Added[0] != "new" {
		t.Errorf("Added = %v", rep.Added)
	}
	if len(rep.Removed) != 1 || rep.Removed[0] != "gone" {
		t.Errorf("Removed = %v", rep.Removed)
	}
	// Within relative tolerance the value change disappears; series
	// membership changes never do.
	rep = Diff(a, b, Tolerance{Rel: 0.1})
	if len(rep.Changed) != 0 || len(rep.Added) != 1 || len(rep.Removed) != 1 {
		t.Errorf("tolerant diff = %+v", rep)
	}
	if rep.Empty() {
		t.Error("membership changes must keep the report non-empty")
	}
	if eq := Diff(a, a, Tolerance{}); !eq.Empty() {
		t.Errorf("self-diff not empty: %+v", eq)
	}
}

func TestReportTextDeterministic(t *testing.T) {
	a := map[string]float64{"m": 1, "n": 2}
	b := map[string]float64{"m": 3, "o": 4}
	var w1, w2 bytes.Buffer
	if err := Diff(a, b, Tolerance{}).WriteText(&w1); err != nil {
		t.Fatal(err)
	}
	if err := Diff(a, b, Tolerance{}).WriteText(&w2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Error("report text differs across renders")
	}
	out := w1.String()
	for _, want := range []string{"changed m: 1 -> 3 (+2)", "added   o", "removed n"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// exportRun runs a small scenario with full observability and writes its
// run directory.
func exportRun(t *testing.T, dir string, seed uint64) {
	t.Helper()
	cfg := scenario.DefaultConfig(seed)
	cfg.Horizon = 3 * des.Day
	cfg.DrainTime = des.Day
	cfg.Users = users.Config{Projects: 20, UsersPerProjMu: 0.7, UsersPerProjSd: 0.6, ActivityAlpha: 1.5}
	cfg.Generators = []workload.Generator{
		&workload.BatchGen{JobsPerDay: 60, CapabilityFrac: 0.02, MedianRuntime: 3600},
		&workload.UrgentGen{EventsPerWeek: 3, MedianRuntime: 1800},
		&workload.InteractiveGen{SessionsPerDay: 8, MedianSession: 1200},
		&workload.GatewayGen{Gateway: "nanohub", RequestsPerDay: 40, EndUsers: 100, MedianRuntime: 300},
	}
	buf := obs.NewBuffer()
	reg := telemetry.New()
	ev, err := slo.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observers = []scenario.Observer{
		scenario.RecordSpans(buf), scenario.LiveTelemetry(reg), scenario.EvaluateSLO(ev),
	}
	res, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteRunDir(dir, reg, buf, res.Central, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSelfDiffIsEmpty is the tgdiff self-test: a run diffed against itself
// (and against a same-seed re-run) must report zero regressions, and the
// clean report must render byte-identically.
func TestSelfDiffIsEmpty(t *testing.T) {
	dirA := filepath.Join(t.TempDir(), "a")
	dirB := filepath.Join(t.TempDir(), "b")
	exportRun(t, dirA, 7)
	exportRun(t, dirB, 7)

	// The exports themselves are byte-identical across same-seed runs.
	for _, name := range []string{MetricsFile, ObsFile, AcctFile} {
		ba, err := os.ReadFile(filepath.Join(dirA, name))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(filepath.Join(dirB, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Errorf("%s differs between same-seed runs", name)
		}
	}

	ra, err := LoadRunDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := LoadRunDir(dirB)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := ra.Series()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := rb.Series()
	if err != nil {
		t.Fatal(err)
	}
	if len(sa) < 50 {
		t.Fatalf("only %d series derived; export too thin", len(sa))
	}
	rep := Diff(sa, sb, Tolerance{})
	if !rep.Empty() {
		var w bytes.Buffer
		_ = rep.WriteText(&w)
		t.Fatalf("same-seed diff not empty:\n%s", w.String())
	}
	var w1, w2 bytes.Buffer
	if err := rep.WriteText(&w1); err != nil {
		t.Fatal(err)
	}
	if err := Diff(sb, sa, Tolerance{}).WriteText(&w2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Error("clean report not byte-identical across directions")
	}
}

// TestPerturbedDiffNamesChanges: a different seed must produce a non-empty
// report that names shifted series, including wait-decomposition ones.
func TestPerturbedDiffNamesChanges(t *testing.T) {
	dirA := filepath.Join(t.TempDir(), "a")
	dirB := filepath.Join(t.TempDir(), "b")
	exportRun(t, dirA, 7)
	exportRun(t, dirB, 8)

	ra, err := LoadRunDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := LoadRunDir(dirB)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := ra.Series()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := rb.Series()
	if err != nil {
		t.Fatal(err)
	}
	rep := Diff(sa, sb, Tolerance{})
	if rep.Empty() {
		t.Fatal("different seeds produced an empty diff")
	}
	var w bytes.Buffer
	if err := rep.WriteText(&w); err != nil {
		t.Fatal(err)
	}
	out := w.String()
	if !strings.Contains(out, "REGRESSIONS:") {
		t.Error("report missing REGRESSIONS header")
	}
	if !strings.Contains(out, "decomp:") {
		t.Error("report names no wait-decomposition series")
	}
	if !strings.Contains(out, "acct:") {
		t.Error("report names no accounting series")
	}
}

func TestLoadRunDirPartialAndMissing(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadRunDir(dir); err == nil {
		t.Error("empty dir must fail to load")
	}
	reg := telemetry.New()
	reg.Gauge("tg_only", "").With().Set(1)
	if err := WriteRunDir(dir, reg, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	r, err := LoadRunDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Events != nil || r.Central != nil {
		t.Error("absent sources must stay nil")
	}
	s, err := r.Series()
	if err != nil {
		t.Fatal(err)
	}
	if s["tg_only"] != 1 {
		t.Errorf("series = %v", s)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.New()
	reg.Gauge("tg_only", "").With().Set(1)
	man := &Manifest{Seed: 42, LargestCores: 12288, EndTimeS: 864000}
	if err := WriteRunDir(dir, reg, nil, nil, man); err != nil {
		t.Fatal(err)
	}
	r, err := LoadRunDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Manifest == nil {
		t.Fatal("manifest not loaded")
	}
	// The schema version defaults on write; everything else round-trips.
	want := Manifest{Schema: ManifestSchema, Seed: 42, LargestCores: 12288, EndTimeS: 864000}
	if *r.Manifest != want {
		t.Errorf("manifest = %+v, want %+v", *r.Manifest, want)
	}
	// A corrupt manifest is a load error, not a silent nil.
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRunDir(dir); err == nil {
		t.Error("corrupt manifest loaded without error")
	}
}

func TestLoadRunDirSelect(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.New()
	reg.Gauge("tg_only", "").With().Set(1)
	buf := obs.NewBuffer()
	buf.Record(obs.Event{At: 1, Phase: obs.PhaseInstant, Cat: "job", Name: "x"})
	if err := WriteRunDir(dir, reg, buf, nil, &Manifest{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	// Selecting only obs skips the metrics but still loads the manifest.
	r, err := LoadRunDirSelect(dir, ObsFile)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics != nil {
		t.Error("metrics loaded despite not being selected")
	}
	if len(r.Events) != 1 {
		t.Errorf("events = %d, want 1", len(r.Events))
	}
	if r.Manifest == nil || r.Manifest.Seed != 9 {
		t.Errorf("manifest = %+v", r.Manifest)
	}
	// Selecting only an absent file finds nothing and errors.
	if _, err := LoadRunDirSelect(dir, AcctFile); err == nil {
		t.Error("selecting only an absent file must fail")
	}
	// Unknown selections are a usage error.
	if _, err := LoadRunDirSelect(dir, "nope.txt"); err == nil {
		t.Error("unknown file name accepted")
	}
}

// TestDiffSkipsRuntimeSeries: the wall-clock-only tg_runtime_ family never
// participates in a determinism diff — not as a change, not as an
// add/remove, not even in the series counts.
func TestDiffSkipsRuntimeSeries(t *testing.T) {
	a := map[string]float64{
		"tg_jobs_total{machine=\"abe\"}": 5,
		"tg_runtime_heap_alloc_bytes":    1e6,
	}
	b := map[string]float64{
		"tg_jobs_total{machine=\"abe\"}": 5,
		"tg_runtime_heap_alloc_bytes":    2e6,
		"tg_runtime_goroutines":          8,
	}
	rep := Diff(a, b, Tolerance{})
	if !rep.Empty() {
		var buf bytes.Buffer
		rep.WriteText(&buf)
		t.Errorf("runtime series leaked into the diff:\n%s", buf.String())
	}
	if rep.ASeries != 1 || rep.BSeries != 1 {
		t.Errorf("series counts include runtime series: %d vs %d, want 1 vs 1",
			rep.ASeries, rep.BSeries)
	}
}
