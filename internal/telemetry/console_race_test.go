package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConsoleConcurrentScrapes hammers the console's publication paths —
// Update (snapshot + OpenMetrics) and PublishJSON (mounted pages) — from
// a writer goroutine while several readers scrape every endpoint over
// HTTP. Run under -race this proves the atomic-pointer publication model
// is sound; the content checks prove no response is ever torn (half one
// publication, half another): every payload is built so all of its
// tokens carry the publication's sequence number, and every response must
// be internally consistent.
func TestConsoleConcurrentScrapes(t *testing.T) {
	c := NewConsole()
	srv := httptest.NewServer(c)
	defer srv.Close()

	const (
		writers  = 1 // the console contract: one writer (the sim goroutine)
		readers  = 4
		rounds   = 300
		perRound = 3 // endpoints hit per reader round
	)
	_ = writers

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Closed once the writer has mounted /modalities and /drift: before
	// their first PublishJSON those pages do not exist (404).
	mounted := make(chan struct{})

	// Writer: each publication i stamps every token with i, so a torn
	// response would mix two stamps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			s := &Snapshot{
				SimTime:      float64(i),
				SimTimeHuman: fmt.Sprintf("0:00:00:%02d", i%60),
				Events:       uint64(i),
				JobsFinished: i,
				Machines: []MachineSnap{
					{ID: fmt.Sprintf("m-%d", i), QueueDepth: i, Running: i},
				},
			}
			om := []byte(fmt.Sprintf(
				"# TYPE tg_seq gauge\ntg_seq{a=\"x\"} %d\ntg_seq{b=\"y\"} %d\ntg_seq{c=\"z\"} %d\n# EOF\n",
				i, i, i))
			c.Update(s, om)
			page := []byte(fmt.Sprintf(`{"seq":%d,"echo":%d,"again":%d}`, i, i, i))
			c.PublishJSON("/modalities", page)
			c.PublishJSON("/drift", page)
			if i == 0 {
				close(mounted)
			}
		}
		stop.Store(true)
	}()

	var torn atomic.Int64
	check := func(path string, verify func(body []byte) error) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Error(err)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Error(err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
			return
		}
		if err := verify(body); err != nil {
			torn.Add(1)
			t.Errorf("GET %s: %v\n%s", path, err, body)
		}
	}

	verifyMetrics := func(body []byte) error {
		// All three tg_seq samples must carry the same stamp.
		var stamps []string
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "tg_seq{") {
				f := strings.Fields(line)
				if len(f) != 2 {
					return fmt.Errorf("malformed sample %q", line)
				}
				stamps = append(stamps, f[1])
			}
		}
		if len(stamps) == 0 {
			return nil // initial "# EOF" payload, before the first Update
		}
		if len(stamps) != 3 {
			return fmt.Errorf("want 3 tg_seq samples, got %d", len(stamps))
		}
		if stamps[0] != stamps[1] || stamps[1] != stamps[2] {
			return fmt.Errorf("torn exposition: stamps %v", stamps)
		}
		return nil
	}
	verifyStatus := func(body []byte) error {
		var s Snapshot
		if err := json.Unmarshal(body, &s); err != nil {
			return fmt.Errorf("unparsable snapshot: %w", err)
		}
		// Events, JobsFinished, and SimTime all carry the same stamp.
		if uint64(s.JobsFinished) != s.Events || s.SimTime != float64(s.Events) {
			return fmt.Errorf("torn snapshot: events=%d finished=%d sim=%v",
				s.Events, s.JobsFinished, s.SimTime)
		}
		return nil
	}
	verifyPage := func(body []byte) error {
		var p struct {
			Seq   int64 `json:"seq"`
			Echo  int64 `json:"echo"`
			Again int64 `json:"again"`
		}
		if err := json.Unmarshal(body, &p); err != nil {
			return fmt.Errorf("unparsable page: %w", err)
		}
		if p.Echo != p.Seq || p.Again != p.Seq {
			return fmt.Errorf("torn page: %+v", p)
		}
		return nil
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-mounted
			for !stop.Load() {
				check("/metrics", verifyMetrics)
				check("/status", verifyStatus)
				check("/modalities", verifyPage)
				check("/drift", verifyPage)
				check("/", func(body []byte) error {
					if !strings.Contains(string(body), "<html") {
						return fmt.Errorf("dashboard HTML missing")
					}
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d torn responses observed", n)
	}
}
