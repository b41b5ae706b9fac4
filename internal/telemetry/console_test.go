package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/tgsim/tgmod/internal/des"
)

func get(t *testing.T, c *Console, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	return rec
}

func TestConsoleMetricsEndpoint(t *testing.T) {
	c := NewConsole()
	// Before any publication the endpoint serves a valid empty exposition.
	rec := get(t, c, "/metrics")
	if rec.Code != 200 || rec.Body.String() != "# EOF\n" {
		t.Errorf("initial /metrics: code %d body %q", rec.Code, rec.Body.String())
	}
	payload := []byte("# TYPE x gauge\nx 1\n# EOF\n")
	c.Update(nil, payload)
	rec = get(t, c, "/metrics")
	if rec.Body.String() != string(payload) {
		t.Errorf("/metrics body = %q, want published payload", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("/metrics content-type = %q", ct)
	}
}

func TestConsoleStatusEndpoint(t *testing.T) {
	c := NewConsole()
	c.Update(&Snapshot{
		SimTime: 3600, SimTimeHuman: "0:01:00:00", Progress: 0.25,
		Events: 1000, JobsFinished: 42, Done: false,
		Machines: []MachineSnap{{ID: "abe", QueueDepth: 3, Running: 7, Utilization: 0.5}},
	}, nil)
	rec := get(t, c, "/status")
	if rec.Code != 200 {
		t.Fatalf("/status code %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/status content-type = %q", ct)
	}
	var s Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("/status is not JSON: %v", err)
	}
	if s.Progress != 0.25 || s.JobsFinished != 42 || len(s.Machines) != 1 || s.Machines[0].ID != "abe" {
		t.Errorf("/status decoded %+v", s)
	}
	// Field names are the documented wire contract.
	for _, key := range []string{`"sim_time_s"`, `"progress"`, `"events_per_sec"`, `"machines"`, `"queue_depth"`} {
		if !strings.Contains(rec.Body.String(), key) {
			t.Errorf("/status missing field %s", key)
		}
	}
}

func TestConsoleDashboardAndNotFound(t *testing.T) {
	c := NewConsole()
	for _, path := range []string{"/", "/index.html"} {
		rec := get(t, c, path)
		body := rec.Body.String()
		if rec.Code != 200 || !strings.Contains(body, "tgsim run console") ||
			!strings.Contains(body, "/status") || !strings.Contains(body, "/metrics") {
			t.Errorf("%s: code %d, dashboard markers missing", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
			t.Errorf("%s content-type = %q", path, ct)
		}
	}
	if rec := get(t, c, "/nope"); rec.Code != 404 {
		t.Errorf("/nope code %d, want 404", rec.Code)
	}
}

func TestConsolePublishJSON(t *testing.T) {
	c := NewConsole()
	// Unpublished extra pages 404 like any unknown path.
	if rec := get(t, c, "/modalities"); rec.Code != 404 {
		t.Errorf("unpublished /modalities code %d, want 404", rec.Code)
	}
	payload := []byte(`{"windows":[]}` + "\n")
	c.PublishJSON("/modalities", payload)
	rec := get(t, c, "/modalities")
	if rec.Code != 200 || rec.Body.String() != string(payload) {
		t.Errorf("/modalities: code %d body %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/modalities content-type = %q", ct)
	}
	// Republishing replaces; nil payload unmounts.
	c.PublishJSON("/modalities", []byte("{}\n"))
	if rec := get(t, c, "/modalities"); rec.Body.String() != "{}\n" {
		t.Errorf("republished body %q", rec.Body.String())
	}
	c.PublishJSON("/modalities", nil)
	if rec := get(t, c, "/modalities"); rec.Code != 404 {
		t.Errorf("unmounted /modalities code %d, want 404", rec.Code)
	}
}

func TestConsoleServeRealListener(t *testing.T) {
	c := NewConsole()
	addr, err := c.Serve("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "# EOF\n" {
		t.Errorf("served body %q", body)
	}
}

func TestPublisherThrottleAndFinal(t *testing.T) {
	var published []*Snapshot
	p := &Publisher{
		Build: func(at des.Time, events uint64, pending int) *Snapshot {
			return &Snapshot{SimTime: float64(at), Events: events, Pending: pending, Progress: float64(at) / 100}
		},
		Sink:       func(s *Snapshot) { published = append(published, s) },
		checkEvery: 10,
		minWall:    time.Nanosecond,
	}
	for i := 1; i <= 25; i++ {
		p.AfterEvent(des.Time(i), "ev", 25-i)
	}
	// Events 10 and 20 hit the stride; wall throttle is effectively off.
	if len(published) != 2 {
		t.Fatalf("published %d snapshots, want 2", len(published))
	}
	if published[0].Events != 10 || published[1].Events != 20 {
		t.Errorf("snapshot events = %d, %d", published[0].Events, published[1].Events)
	}
	if published[0].Done {
		t.Error("mid-run snapshot marked done")
	}
	if published[0].WallSeconds <= 0 || published[0].EventsPerSec <= 0 {
		t.Errorf("wall fields not filled: %+v", published[0])
	}
	p.Final(100, 0)
	last := published[len(published)-1]
	if !last.Done || last.Progress != 1 {
		t.Errorf("final snapshot: %+v", last)
	}
}

func TestPublisherWallThrottle(t *testing.T) {
	n := 0
	p := &Publisher{
		Build:      func(at des.Time, events uint64, pending int) *Snapshot { return &Snapshot{} },
		Sink:       func(*Snapshot) { n++ },
		checkEvery: 1,
		minWall:    time.Hour,
	}
	for i := 1; i <= 1000; i++ {
		p.AfterEvent(des.Time(i), "ev", 0)
	}
	// The first stride hit publishes (lastPub is zero), then the hour-long
	// minimum suppresses everything after.
	if n > 1 {
		t.Errorf("wall throttle let through %d publications", n)
	}
}

func TestSnapshotLine(t *testing.T) {
	s := &Snapshot{
		Progress: 0.5, SimTimeHuman: "0:12:00:00", Events: 1234567,
		EventsPerSec: 50000, JobsFinished: 99, ETASeconds: 30,
		Machines: []MachineSnap{{QueueDepth: 4, Running: 6}, {QueueDepth: 1, Running: 2}},
	}
	line := s.Line()
	for _, want := range []string{"50.0%", "0:12:00:00", "1.2M", "queued 5", "running 8", "finished 99", "eta 30s"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q missing %q", line, want)
		}
	}
	s.Done = true
	if !strings.Contains(s.Line(), "done") {
		t.Errorf("done line %q", s.Line())
	}
}

func TestConsoleServeAndClose(t *testing.T) {
	c := NewConsole()
	addr, err := c.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "# EOF\n" {
		t.Errorf("served metrics = %q", body)
	}
	if err := c.Close(time.Second); err != nil {
		t.Errorf("Close: %v", err)
	}
	// The listener is gone: new connections must fail.
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("connection succeeded after Close")
	}
	// Closing again (or a never-served console) is a no-op.
	if err := c.Close(time.Second); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := (&Console{}).Close(time.Second); err != nil {
		t.Errorf("unserved Close: %v", err)
	}
}
