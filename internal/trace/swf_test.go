package trace

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/accounting"
)

func sampleRecords() []accounting.JobRecord {
	return []accounting.JobRecord{
		{JobID: 2, Name: "b", User: "bob", Project: "p2", Machine: "m2",
			Cores: 64, SubmitTime: 500, StartTime: 600, EndTime: 1600,
			WallSeconds: 1000, QOS: "urgent", ExitStatus: "completed"},
		{JobID: 1, Name: "a", User: "alice", Project: "p1", Machine: "m1",
			Cores: 8, SubmitTime: 100, StartTime: 150, EndTime: 450,
			WallSeconds: 300, QOS: "normal", ExitStatus: "killed"},
		{JobID: 3, Name: "a", User: "alice", Project: "p1", Machine: "m1",
			Cores: 4, SubmitTime: 900, StartTime: 900, EndTime: 950,
			WallSeconds: 50, QOS: "interactive", ExitStatus: "failed"},
	}
}

func TestWriteSWFSortedAndFormatted(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSWF(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "; SWF export") {
		t.Errorf("missing header: %q", out[:40])
	}
	// Data lines sorted by submit time: job 1 (100) before job 2 (500).
	var data []string
	for _, l := range strings.Split(out, "\n") {
		if l != "" && !strings.HasPrefix(l, ";") {
			data = append(data, l)
		}
	}
	if len(data) != 3 {
		t.Fatalf("data lines = %d, want 3", len(data))
	}
	if !strings.HasPrefix(data[0], "1 100 ") || !strings.HasPrefix(data[1], "2 500 ") {
		t.Errorf("not sorted by submit: %v", data)
	}
	// Legends present.
	if !strings.Contains(out, "; User 1 = alice") {
		t.Error("user legend missing")
	}
	if !strings.Contains(out, "; Partition 1 = m1") {
		t.Error("partition legend missing")
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSWF(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	jobs, err := ReadSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("parsed %d jobs, want 3", len(jobs))
	}
	// Job 1: killed normal 8-core job, wait 50, run 300.
	j := jobs[0]
	if j.Number != 1 || j.Wait != 50 || j.Run != 300 || j.Procs != 8 ||
		j.Status != 0 || j.Queue != 1 {
		t.Errorf("job 1 fields wrong: %+v", j)
	}
	// Job 2: urgent queue 2, completed status 1.
	if jobs[1].Queue != 2 || jobs[1].Status != 1 {
		t.Errorf("job 2 fields wrong: %+v", jobs[1])
	}
	// Job 3: interactive queue 3, failed→canceled status 5.
	if jobs[2].Queue != 3 || jobs[2].Status != 5 {
		t.Errorf("job 3 fields wrong: %+v", jobs[2])
	}

	// Convert back to records and check the invertible fields.
	recs := Records(jobs)
	if recs[0].ExitStatus != "killed" || recs[1].ExitStatus != "completed" ||
		recs[2].ExitStatus != "failed" {
		t.Errorf("status mapping wrong: %v %v %v",
			recs[0].ExitStatus, recs[1].ExitStatus, recs[2].ExitStatus)
	}
	if recs[1].QOS != "urgent" || recs[2].QOS != "interactive" {
		t.Error("queue mapping wrong")
	}
	if recs[0].CoreSeconds != 300*8 {
		t.Errorf("core seconds = %v", recs[0].CoreSeconds)
	}
	// Same user → same synthesized identity.
	if recs[0].User != recs[2].User {
		t.Error("dense user ids not stable")
	}
}

func TestReadSWFTolerance(t *testing.T) {
	in := `; comment
; another

1 0 10 100 4 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1
2 5 0 50 0 -1 -1 8
`
	jobs, err := ReadSWF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("parsed %d jobs", len(jobs))
	}
	// Missing fields become -1; zero procs fall back to requested procs.
	if jobs[1].Procs != 8 || jobs[1].Queue != -1 {
		t.Errorf("tolerant parse wrong: %+v", jobs[1])
	}
	if jobs[0].ReqTime != 200 {
		t.Errorf("ReqTime = %v", jobs[0].ReqTime)
	}
}

func TestReadSWFErrors(t *testing.T) {
	if _, err := ReadSWF(strings.NewReader("1 2 3\n")); err == nil {
		t.Error("short line accepted")
	}
	if _, err := ReadSWF(strings.NewReader("a b c d e\n")); err == nil {
		t.Error("non-numeric accepted")
	}
	// A non-finite field is a typed error naming its line and field.
	for _, in := range []string{"1 0 10 100 4\n2 0 NaN 100 4\n", "2 0 10 +Inf 4\n", "2 0 10 100 4 -1 -1 4 -inf\n"} {
		_, err := ReadSWF(strings.NewReader(in))
		if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), " field ") {
			t.Errorf("%q: err = %v, want a line- and field-numbered ErrNonFinite", in, err)
		}
	}
}

// FuzzReadSWF: arbitrary input never panics the reader, and every job it
// accepts carries finite times.
func FuzzReadSWF(f *testing.F) {
	for _, seed := range []string{
		"; comment\n1 0 10 100 4 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1\n",
		"2 5 0 50 0 -1 -1 8\n",
		"1 2 3\n",
		"a b c d e\n",
		"1 0 NaN 100 4\n",
		"1 0 10 1e309 4\n",
		"1 0 10 100 4 -1 -1 4 -Inf\n",
		"9e18 -0 0x1p-2 1_0 4\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		jobs, err := ReadSWF(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, j := range jobs {
			for _, v := range []float64{j.Submit, j.Wait, j.Run, j.ReqTime} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted non-finite job %+v from %q", j, in)
				}
			}
		}
		Records(jobs)
	})
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSWF(&buf, nil); err != nil {
		t.Fatal(err)
	}
	jobs, err := ReadSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Errorf("empty export parsed %d jobs", len(jobs))
	}
}
