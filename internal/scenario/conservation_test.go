package scenario_test

import (
	"reflect"
	"sort"
	"testing"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/stream"
)

// sumNUs returns the summed NUs and wasted NUs of records, in slice order.
func sumNUs(jobs []accounting.JobRecord) (nus, wasted float64) {
	for i := range jobs {
		nus += jobs[i].NUs
		wasted += jobs[i].WastedNUs
	}
	return nus, wasted
}

// exactModalities are the modalities whose online and batch job counts
// must be equal: four decided by direct evidence that reaches the stream
// no later than the job's own record, and batch-capability, whose size
// split both classifiers share.
var exactModalities = map[job.Modality]bool{
	job.ModUrgent: true, job.ModInteractive: true, job.ModGateway: true,
	job.ModMetascheduled: true, job.ModBatchCapability: true,
}

// checkAgreement compares the stream's online lifetime counts with the
// batch classifier's: equal on exactModalities, and Σ|online − batch| over
// the rest equal to the pinned gap. The gap is real: the online rules see
// a burst or chain only once it has formed, and a transfer only once its
// ledger flushes.
func checkAgreement(t *testing.T, proc *stream.Processor, results []core.Result, gap int) {
	t.Helper()
	batch := map[job.Modality]int64{}
	for _, r := range results {
		batch[r.Modality]++
	}
	online := map[job.Modality]int64{}
	for _, row := range proc.Modalities().Lifetime.Rows {
		online[job.Modality(row.Modality)] = row.Jobs
	}
	got := int64(0)
	for _, m := range job.AllModalities {
		d := online[m] - batch[m]
		if exactModalities[m] {
			if d != 0 {
				t.Errorf("%s: online %d, batch %d; direct evidence must agree exactly", m, online[m], batch[m])
			}
			continue
		}
		got += max(d, -d)
		t.Logf("%s: online %d, batch %d", m, online[m], batch[m])
	}
	if got != int64(gap) {
		t.Errorf("online-vs-batch gap Σ|online − batch| = %d, want %d", got, gap)
	}
}

// TestRecordConservation follows every job record along the accounting
// path of a quick seed-7 run: site ledger, packet, wire, central database,
// packet tap, stream processor, and the batch report. The records a tap
// sees must equal what the central database decoded from the wire, field
// for field and in order, and the NU and wasted-NU totals must agree at
// every stop. Sums are compared exactly, each in the order its consumer
// holds the records.
func TestRecordConservation(t *testing.T) {
	fed, err := scenario.TG9()
	if err != nil {
		t.Fatal(err)
	}
	largest := 0
	for _, m := range fed.Machines() {
		largest = max(largest, m.BatchCores())
	}
	cases := []struct {
		name   string
		opts   []scenario.Option
		faults bool
		// gap is the pinned online-vs-batch disagreement on the inferred
		// modalities, Σ|online − batch| job counts.
		gap int
	}{
		{name: "easy", gap: 286},
		{name: "conservative-faults", faults: true, gap: 282, opts: []scenario.Option{
			scenario.WithPolicy("conservative"),
			scenario.WithFaultIntensity(1),
			scenario.WithCheckpointRestart(15*des.Minute, 0),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := scenario.New(7, append(experiments.StandardOptions(experiments.Quick), tc.opts...)...)
			proc := stream.New(stream.Config{LargestCores: largest})
			var tapped []accounting.JobRecord
			var tappedRecords uint64 // records of all four kinds
			cfg.Observers = append(cfg.Observers, stream.Tap(proc),
				scenario.TapPackets(func(_ des.Time, p *accounting.Packet) {
					tapped = append(tapped, p.Jobs...)
					tappedRecords += uint64(len(p.Jobs) + len(p.Transfers) + len(p.GatewayAttrs) + len(p.Storage))
				}))
			res, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "easy" && (res.Kernel.Executed() != 14210 || len(res.Central.Jobs()) != 5129) {
				t.Errorf("events/jobs = %d/%d, want the quick seed-7 anchors 14210/5129",
					res.Kernel.Executed(), len(res.Central.Jobs()))
			}
			// The first read seals the live records at their exact size:
			// a Result keeps no growth slack.
			if jobs := res.Central.Jobs(); cap(jobs) != len(jobs) {
				t.Errorf("central jobs cap %d, want exact size %d", cap(jobs), len(jobs))
			}

			packetNUs, packetWasted := sumNUs(tapped)
			central := res.Central.Jobs()
			if !reflect.DeepEqual(tapped, central) {
				t.Fatalf("tapped records differ from the central database (%d vs %d records)", len(tapped), len(central))
			}
			nus, wasted := sumNUs(central)
			if packetNUs != res.Central.TotalNUs() || nus != packetNUs || wasted != packetWasted {
				t.Errorf("central NUs %v (wasted %v), packets %v (wasted %v)",
					res.Central.TotalNUs(), wasted, packetNUs, packetWasted)
			}
			if tc.faults != (wasted > 0) {
				t.Errorf("wasted NUs = %v with faults %v", wasted, tc.faults)
			}

			results := core.NewClassifier(core.Config{LargestCores: res.LargestCores}).Classify(res.Central)
			if rep := core.BuildReport(res.Central, results); rep.TotalNUs != packetNUs {
				t.Errorf("batch report NUs %v, packets %v", rep.TotalNUs, packetNUs)
			}
			// The stream applies every record it is offered.
			if proc.Ingested() != tappedRecords {
				t.Errorf("stream ingested %d records, packets carried %d", proc.Ingested(), tappedRecords)
			}
			checkAgreement(t, proc, results, tc.gap)

			fin, err := proc.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			// Finalize rebuilds the database in JobID order.
			canonical := append([]accounting.JobRecord(nil), tapped...)
			sort.Slice(canonical, func(i, j int) bool { return canonical[i].JobID < canonical[j].JobID })
			wantNUs, wantWasted := sumNUs(canonical)
			finNUs, finWasted := sumNUs(fin.Central.Jobs())
			if fin.Central.TotalNUs() != wantNUs || finNUs != wantNUs || finWasted != wantWasted {
				t.Errorf("stream finalize NUs %v (wasted %v), packets in JobID order %v (wasted %v)",
					fin.Central.TotalNUs(), finWasted, wantNUs, wantWasted)
			}
			if fin.Report.TotalNUs != wantNUs {
				t.Errorf("stream report NUs %v, packets in JobID order %v", fin.Report.TotalNUs, wantNUs)
			}
		})
	}
}
