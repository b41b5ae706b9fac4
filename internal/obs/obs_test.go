package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/des"
)

func sampleEvents() *Buffer {
	b := NewBuffer()
	b.Begin(0.5, "job", "wait", "m1", 1, KV{Key: "user", Value: "alice"}, KV{Key: "cores", Value: 8})
	b.End(2, "job", "wait", "m1", 1)
	b.Begin(2, "job", "run", "m1", 1, KV{Key: "cores", Value: 8})
	b.End(10.25, "job", "run", "m1", 1, KV{Key: "state", Value: "completed"})
	b.Begin(3, "net", "transfer", "wan", 7, KV{Key: "src", Value: "a"}, KV{Key: "dst", Value: "b"}, KV{Key: "bytes", Value: int64(1 << 30)})
	b.End(9, "net", "transfer", "wan", 7)
	b.Instant(4, "gateway", "request", "nanohub", KV{Key: "user", Value: `quo"ted`}, KV{Key: "attributed", Value: true})
	return b
}

func TestNilRecorderIsNoOp(t *testing.T) {
	// A nil buffer records nothing and must not panic.
	var b *Buffer
	b.Begin(1, "job", "wait", "m", 1)
	b.End(1, "job", "wait", "m", 1)
	b.Instant(1, "job", "x", "m")
	b.Record(Event{At: 1, Phase: PhaseInstant})
}

func TestChromeTraceRoundTrips(t *testing.T) {
	b := sampleEvents()
	var out bytes.Buffer
	if err := b.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, out.String())
	}
	// process_name + 3 thread_name metadata events + 7 payload events.
	if got, want := len(doc.TraceEvents), 1+3+7; got != want {
		t.Fatalf("trace has %d events, want %d", got, want)
	}
	var tracks []string
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "thread_name" {
			args := ev["args"].(map[string]any)
			tracks = append(tracks, args["name"].(string))
		}
	}
	if got, want := strings.Join(tracks, ","), "m1,wan,nanohub"; got != want {
		t.Errorf("track order = %q, want %q (first appearance order)", got, want)
	}
	// Timestamps are microseconds.
	first := doc.TraceEvents[4]
	if first["ts"].(float64) != 0.5e6 {
		t.Errorf("first payload ts = %v, want 5e5 µs", first["ts"])
	}
	// Async span fields present.
	if first["ph"] != "b" || first["cat"] != "job" {
		t.Errorf("span event malformed: %v", first)
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := sampleEvents().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := sampleEvents().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical event streams serialized to different bytes")
	}
}

func TestJSONLEveryLineValid(t *testing.T) {
	b := sampleEvents()
	var out bytes.Buffer
	if err := b.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&out)
	lines := 0
	for sc.Scan() {
		lines++
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d invalid JSON: %v: %s", lines, err, sc.Text())
		}
		for _, key := range []string{"t", "ph", "cat", "name", "track"} {
			if _, ok := obj[key]; !ok {
				t.Fatalf("line %d missing %q: %s", lines, key, sc.Text())
			}
		}
	}
	if lines != b.Len() {
		t.Errorf("JSONL lines = %d, want %d", lines, b.Len())
	}
}

func TestSampler(t *testing.T) {
	k := des.New()
	depth := 0.0
	sm := NewSampler(10)
	sm.Register("queues", "m1", func() float64 { return depth })
	sm.Register("queues", "m2", func() float64 { return depth * 2 })
	sm.Start(k)
	k.Schedule(15, func(*des.Kernel) { depth = 3 })
	k.RunUntil(40)
	if sm.Samples() != 4 {
		t.Fatalf("samples = %d, want 4", sm.Samples())
	}
	ts := sm.Series("queues", "m1")
	if ts == nil {
		t.Fatal("missing series")
	}
	// Samples at t=10 (depth 0), 20, 30, 40 (depth 3).
	if ts.Mean(1) != 0 || ts.Mean(2) != 3 {
		t.Errorf("series means = %v, %v, want 0, 3", ts.Mean(1), ts.Mean(2))
	}
	var out bytes.Buffer
	if err := sm.WriteCSV("queues", &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	want := "time_s,m1,m2\n10,0,0\n20,3,6\n30,3,6\n40,3,6\n"
	if got != want {
		t.Errorf("CSV:\n%s\nwant:\n%s", got, want)
	}
	if err := sm.WriteCSV("nope", &out); err == nil {
		t.Error("unknown group accepted")
	}
}

func TestTypedArgAccessors(t *testing.T) {
	ev := Event{Args: []KV{
		{Key: "user", Value: "alice"},
		{Key: "cores", Value: 128},
		{Key: "id64", Value: int64(1 << 40)},
		{Key: "frac", Value: 0.25},
		{Key: "whole", Value: float64(9)},
	}}
	if got := ev.ArgString("user"); got != "alice" {
		t.Errorf("ArgString(user) = %q", got)
	}
	if got := ev.ArgString("missing"); got != "" {
		t.Errorf("ArgString(missing) = %q", got)
	}
	if v, ok := ev.ArgInt("cores"); !ok || v != 128 {
		t.Errorf("ArgInt(cores) = %d, %v", v, ok)
	}
	if v, ok := ev.ArgInt("id64"); !ok || v != 1<<40 {
		t.Errorf("ArgInt(id64) = %d, %v", v, ok)
	}
	// Integral floats (the JSONL decode path) coerce; fractional do not.
	if v, ok := ev.ArgInt("whole"); !ok || v != 9 {
		t.Errorf("ArgInt(whole) = %d, %v", v, ok)
	}
	if _, ok := ev.ArgInt("frac"); ok {
		t.Error("ArgInt(frac) should not coerce 0.25")
	}
	if _, ok := ev.Arg("nope"); ok {
		t.Error("Arg(nope) reported present")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	b := NewBuffer()
	b.Begin(1.5, "job", "wait", "m1", 42,
		KV{Key: "user", Value: "alice"},
		KV{Key: "cores", Value: 64},
		KV{Key: "qos", Value: "normal"},
		KV{Key: "mod", Value: "workflow"})
	b.End(2.25, "job", "wait", "m1", 42)
	b.Begin(2.25, "job", "run", "m1", 42, KV{Key: "user", Value: "alice"})
	b.End(10, "job", "run", "m1", 42, KV{Key: "state", Value: "completed"})
	b.Instant(3, "gateway", "request", "nanohub",
		KV{Key: "attributed", Value: true},
		KV{Key: "job", Value: int64(7)})
	b.Begin(4, "net", "transfer", "wan", 9,
		KV{Key: "src", Value: "harbor"}, KV{Key: "dst", Value: "mesa"},
		KV{Key: "bytes", Value: int64(1 << 33)}, KV{Key: "job", Value: int64(0)})
	b.End(5, "net", "transfer", "wan", 9)

	var out bytes.Buffer
	if err := b.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != b.Len() {
		t.Fatalf("decoded %d events, wrote %d", len(events), b.Len())
	}
	// Semantic spot checks.
	if events[0].ArgString("mod") != "workflow" {
		t.Errorf("decoded mod = %q", events[0].ArgString("mod"))
	}
	if v, ok := events[0].ArgInt("cores"); !ok || v != 64 {
		t.Errorf("decoded cores = %d, %v", v, ok)
	}
	if v, ok := events[4].Arg("attributed"); !ok || v != true {
		t.Errorf("decoded attributed = %v, %v", v, ok)
	}
	// Re-encoding the decoded stream must be byte-identical: tgdiff treats
	// the JSONL export as a stable interchange format.
	rt := NewBuffer()
	for _, ev := range events {
		rt.Record(ev)
	}
	var out2 bytes.Buffer
	if err := rt.WriteJSONL(&out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), out2.Bytes()) {
		t.Fatalf("JSONL round trip not byte-identical:\n%s\nvs\n%s", out.String(), out2.String())
	}
}

// failingReader returns one good line, then a read error.
type failingReader struct{ sent bool }

func (r *failingReader) Read(p []byte) (int, error) {
	if r.sent {
		return 0, errors.New("disk on fire")
	}
	r.sent = true
	return copy(p, `{"t":1,"ph":"i","cat":"c","name":"n","track":"t"}`+"\n"), nil
}

// TestReadJSONLRejectsGarbage: every kind of ReadJSONL failure wraps
// ErrBadJSONL, the over-long line and the read error included.
func TestReadJSONLRejectsGarbage(t *testing.T) {
	long := `{"t":1,"ph":"i","cat":"c","name":"` + strings.Repeat("x", 1<<20) + `","track":"t"}`
	for name, r := range map[string]io.Reader{
		"malformed line":    strings.NewReader("{not json}\n"),
		"multi-byte phase":  strings.NewReader(`{"t":1,"ph":"xy","cat":"c","name":"n","track":"t"}` + "\n"),
		"args not object":   strings.NewReader(`{"t":1,"ph":"i","cat":"c","name":"n","track":"t","args":[1]}`),
		"non-scalar arg":    strings.NewReader(`{"t":1,"ph":"i","cat":"c","name":"n","track":"t","args":{"k":{}}}`),
		"unparsable number": strings.NewReader(`{"t":1,"ph":"i","cat":"c","name":"n","track":"t","args":{"k":1e999}}`),
		"line over 1 MiB":   strings.NewReader(long),
		"read error":        &failingReader{},
	} {
		if _, err := ReadJSONL(r); !errors.Is(err, ErrBadJSONL) {
			t.Errorf("%s: error %v does not wrap ErrBadJSONL", name, err)
		}
	}
	if _, err := ReadJSONL(strings.NewReader(long)); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("line over 1 MiB: error %v does not wrap bufio.ErrTooLong", err)
	}
	events, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || len(events) != 0 {
		t.Errorf("blank input: %v, %d events", err, len(events))
	}
}

// FuzzReadJSONL drives arbitrary bytes through the event-stream reader that
// tgdiff points at run directories. ReadJSONL must never panic, and every
// failure must wrap ErrBadJSONL.
func FuzzReadJSONL(f *testing.F) {
	real, err := os.ReadFile(filepath.Join("testdata", "quick-obs.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	for _, line := range bytes.SplitAfter(real, []byte("\n")) {
		f.Add(line)
	}
	f.Add([]byte(`{"t":1,"ph":"i","cat":"c","name":"n","track":"t","args":{"a":null,"b":1.5,"c":-7}}` + "\r\n\n"))
	f.Add([]byte(`{"t":1,"ph":"xy"}`))
	f.Add([]byte(`{"args":{"k":[1]}}`))
	f.Add([]byte("not json\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := ReadJSONL(bytes.NewReader(data)); err != nil && !errors.Is(err, ErrBadJSONL) {
			t.Fatalf("error %v does not wrap ErrBadJSONL", err)
		}
	})
}
