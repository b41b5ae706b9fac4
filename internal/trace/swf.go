// Package trace reads and writes batch-job traces in the Standard Workload
// Format (SWF) used by the parallel-workloads archives: one job per line,
// 18 whitespace-separated integer fields, ';' comment header. Exporting
// the simulator's accounting records as SWF lets external scheduler tools
// consume them; importing lets archive traces drive the substrate in place
// of synthetic generators.
//
// Field mapping (1-based SWF field → record):
//
//	 1 job number        ← JobID
//	 2 submit time       ← SubmitTime (s)
//	 3 wait time         ← StartTime-SubmitTime (s)
//	 4 run time          ← EndTime-StartTime (s)
//	 5 allocated procs   ← Cores
//	 6 avg cpu time      ← -1 (unknown)
//	 7 used memory       ← -1
//	 8 requested procs   ← Cores
//	 9 requested time    ← -1 on export of finished jobs is lossy, so the
//	                        requested walltime is preserved when known
//	10 requested memory  ← -1
//	11 status            ← 1 completed, 0 killed/failed, 5 canceled
//	12 user id           ← dense id assigned per distinct user
//	13 group id          ← dense id per project
//	14 executable id     ← dense id per job name
//	15 queue number      ← 1 normal, 2 urgent, 3 interactive
//	16 partition number  ← dense id per machine
//	17 preceding job     ← -1
//	18 think time        ← -1
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"github.com/tgsim/tgmod/internal/job"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/tgsim/tgmod/internal/accounting"
)

// dense assigns stable small integers to strings in first-seen order.
type dense struct {
	ids   map[string]int
	names []string
}

func newDense() *dense { return &dense{ids: make(map[string]int)} }

func (d *dense) id(s string) int {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := len(d.names) + 1
	d.ids[s] = id
	d.names = append(d.names, s)
	return id
}

func queueNumber(qos job.Sym) int {
	switch qos {
	case job.SymUrgent:
		return 2
	case job.SymInteractive:
		return 3
	default:
		return 1
	}
}

func statusCode(exit job.Sym) int {
	switch exit {
	case job.SymCompleted:
		return 1
	case job.SymKilled:
		return 0
	default:
		return 5
	}
}

// WriteSWF exports job records (sorted by submit time) as an SWF trace.
// The header records the dense-id legends so the mapping is reversible by
// humans. syms is the table the records index.
func WriteSWF(w io.Writer, jobs []*accounting.JobRecord, syms *job.Symbols) error {
	sorted := slices.Clone(jobs)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].SubmitTime != sorted[j].SubmitTime {
			return sorted[i].SubmitTime < sorted[j].SubmitTime
		}
		return sorted[i].JobID < sorted[j].JobID
	})
	users := newDense()
	groups := newDense()
	execs := newDense()
	parts := newDense()

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "; SWF export from tgmod accounting (%d jobs)\n", len(sorted))
	fmt.Fprintf(bw, "; UnixStartTime: 0\n")
	fmt.Fprintf(bw, "; MaxJobs: %d\n", len(sorted))
	for _, r := range sorted {
		wait := int64(r.StartTime - r.SubmitTime)
		if wait < 0 {
			wait = 0
		}
		fmt.Fprintf(bw, "%d %d %d %d %d -1 -1 %d %d -1 %d %d %d %d %d %d -1 -1\n",
			r.JobID,
			int64(r.SubmitTime),
			wait,
			int64(r.WallSeconds),
			r.Cores,
			r.Cores,
			int64(r.WallSeconds), // requested time ≈ used when request unknown
			statusCode(r.ExitStatus),
			users.id(syms.Str(r.User)),
			groups.id(syms.Str(r.Project)),
			execs.id(syms.Str(r.Name)),
			queueNumber(r.QOS),
			parts.id(syms.Str(r.Machine)),
		)
	}
	// Legends as trailing comments keep the body parseable by strict SWF
	// readers (comments are only legal at the top in some dialects, so we
	// emit legends before nothing — i.e. flush and append is fine for our
	// own reader, which tolerates comments anywhere).
	writeLegend := func(kind string, d *dense) {
		for i, name := range d.names {
			fmt.Fprintf(bw, "; %s %d = %s\n", kind, i+1, name)
		}
	}
	writeLegend("User", users)
	writeLegend("Group", groups)
	writeLegend("Partition", parts)
	return bw.Flush()
}

// Job is one parsed SWF entry with resolved integer fields.
type Job struct {
	Number    int64
	Submit    float64
	Wait      float64
	Run       float64
	Procs     int
	ReqProcs  int
	ReqTime   float64
	Status    int
	UserID    int
	GroupID   int
	ExecID    int
	Queue     int
	Partition int
}

// ErrNonFinite marks an SWF field that parses as NaN or ±Inf. ReadSWF
// wraps it with the line and field number.
var ErrNonFinite = errors.New("non-finite value")

// ErrShortLine marks an SWF job line with fewer than the five fields a
// job needs. ReadSWF wraps it with the line number.
var ErrShortLine = errors.New("too few fields")

// ReadSWF parses an SWF trace, tolerating comments anywhere and missing
// trailing fields (filled with -1 per SWF convention). A short line wraps
// ErrShortLine; a field that is not a number wraps strconv's ErrSyntax or
// ErrRange, and a NaN or ±Inf field ErrNonFinite, each naming its line
// and field.
func ReadSWF(r io.Reader) ([]Job, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []Job
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 5 {
			return nil, fmt.Errorf("trace: line %d: %w (%d, want at least 5)", lineNo, ErrShortLine, len(fields))
		}
		get := func(i int) (float64, error) {
			if i >= len(fields) {
				return -1, nil
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return 0, fmt.Errorf("trace: line %d field %d: %w", lineNo, i+1, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("trace: line %d field %d: %w %q", lineNo, i+1, ErrNonFinite, fields[i])
			}
			return v, nil
		}
		var vals [18]float64
		for i := 0; i < 18; i++ {
			v, err := get(i)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		j := Job{
			Number: int64(vals[0]), Submit: vals[1], Wait: vals[2], Run: vals[3],
			Procs: int(vals[4]), ReqProcs: int(vals[7]), ReqTime: vals[8],
			Status: int(vals[10]), UserID: int(vals[11]), GroupID: int(vals[12]),
			ExecID: int(vals[13]), Queue: int(vals[14]), Partition: int(vals[15]),
		}
		if j.Procs <= 0 && j.ReqProcs > 0 {
			j.Procs = j.ReqProcs
		}
		out = append(out, j)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Records converts parsed SWF jobs back into accounting records with
// synthesized string identities ("u<id>", "g<id>", "m<id>"), interned
// into syms. Status and queue mappings invert WriteSWF's.
func Records(jobs []Job, syms *job.Symbols) []accounting.JobRecord {
	out := make([]accounting.JobRecord, 0, len(jobs))
	for _, j := range jobs {
		exit := job.SymFailed
		switch j.Status {
		case 1:
			exit = job.SymCompleted
		case 0:
			exit = job.SymKilled
		}
		qos := job.SymNormal
		switch j.Queue {
		case 2:
			qos = job.SymUrgent
		case 3:
			qos = job.SymInteractive
		}
		out = append(out, accounting.JobRecord{
			JobID:       j.Number,
			Name:        syms.Intern(fmt.Sprintf("exec%d", j.ExecID)),
			User:        syms.Intern(fmt.Sprintf("u%d", j.UserID)),
			Project:     syms.Intern(fmt.Sprintf("g%d", j.GroupID)),
			Machine:     syms.Intern(fmt.Sprintf("m%d", j.Partition)),
			Site:        syms.Intern(fmt.Sprintf("site%d", j.Partition)),
			Cores:       j.Procs,
			SubmitTime:  j.Submit,
			StartTime:   j.Submit + j.Wait,
			EndTime:     j.Submit + j.Wait + j.Run,
			WallSeconds: j.Run,
			CoreSeconds: j.Run * float64(j.Procs),
			// SWF carries no charging factor; external traces are
			// normalized at 1 NU per core-hour.
			NUs:        j.Run * float64(j.Procs) / 3600,
			QOS:        qos,
			ExitStatus: exit,
		})
	}
	return out
}
