package metasched

import (
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/grid"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/simrand"
)

var nextID job.ID

// testSyms is the symbol table of every job, scheduler and broker the
// package's tests build.
var testSyms = job.NewSymbols()

func mkJob(cores int, run, wall des.Time) *job.Job {
	nextID++
	return &job.Job{ID: nextID, Name: testSyms.Intern("t"), User: testSyms.Intern("u"), Project: testSyms.Intern("p"),
		Cores: cores, RunTime: run, ReqWalltime: wall}
}

// twoMachines builds schedulers for a big and a small machine.
func twoMachines(k *des.Kernel) []*sched.Scheduler {
	big := &grid.Machine{ID: "big", Site: "s1", Nodes: 64, CoresPerNode: 8,
		NUPerCoreHour: 2, UrgentCapable: true} // 512 cores
	small := &grid.Machine{ID: "small", Site: "s2", Nodes: 8, CoresPerNode: 8,
		NUPerCoreHour: 1} // 64 cores
	return []*sched.Scheduler{
		sched.MustNamed(k, testSyms, big, "easy"),
		sched.MustNamed(k, testSyms, small, "easy"),
	}
}

func TestPolicyString(t *testing.T) {
	names := map[SelectPolicy]string{
		Random: "random", LeastLoaded: "least-loaded",
		BestEstimated: "best-estimated", DataAware: "data-aware",
		SelectPolicy(9): "select(9)",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestFeasibilityFiltering(t *testing.T) {
	k := des.New()
	b := New(k, testSyms, Random, simrand.New(1), twoMachines(k))
	// 100 cores only fits "big".
	j := mkJob(100, 10, 10)
	b.Submit(j)
	k.Run()
	if testSyms.Str(j.Machine) != "big" {
		t.Errorf("100-core job routed to %q, want big", testSyms.Str(j.Machine))
	}
	// Urgent only fits urgent-capable "big".
	u := mkJob(8, 10, 10)
	u.QOS = job.QOSUrgent
	b.Submit(u)
	k.Run()
	if testSyms.Str(u.Machine) != "big" {
		t.Errorf("urgent job routed to %q, want big", testSyms.Str(u.Machine))
	}
	// Nothing fits 10000 cores.
	imp := mkJob(10000, 10, 10)
	b.Submit(imp)
	if imp.State != job.StateFailed {
		t.Errorf("impossible job state = %v, want failed", imp.State)
	}
}

func TestLeastLoadedSpreads(t *testing.T) {
	k := des.New()
	scheds := twoMachines(k)
	b := New(k, testSyms, LeastLoaded, simrand.New(1), scheds)
	// Saturate big with queued jobs so small becomes least loaded.
	for i := 0; i < 3; i++ {
		b.Submit(mkJob(512, 1000, 1000)) // only fits big; queue grows there
	}
	j := mkJob(32, 10, 10)
	b.Submit(j)
	if testSyms.Str(j.Machine) != "small" {
		t.Errorf("least-loaded routed to %q, want small", testSyms.Str(j.Machine))
	}
	k.Run()
}

func TestBestEstimatedPicksIdleMachine(t *testing.T) {
	k := des.New()
	scheds := twoMachines(k)
	b := New(k, testSyms, BestEstimated, simrand.New(1), scheds)
	// Occupy big entirely for a long time.
	b.Submit(mkJob(512, 5000, 5000))
	b.Submit(mkJob(512, 5000, 5000))
	j := mkJob(32, 10, 10)
	b.Submit(j)
	if testSyms.Str(j.Machine) != "small" {
		t.Errorf("best-estimated routed to %q, want idle small", testSyms.Str(j.Machine))
	}
	k.Run()
	if b.Routed() != 3 {
		t.Errorf("Routed = %d, want 3", b.Routed())
	}
	if b.RoutedTo("small") != 1 {
		t.Errorf("RoutedTo(small) = %d, want 1", b.RoutedTo("small"))
	}
}

func TestDataAwarePrefersDataLocality(t *testing.T) {
	k := des.New()
	scheds := twoMachines(k)
	b := New(k, testSyms, DataAware, simrand.New(1), scheds)
	b.DataHome[testSyms.Intern("p")] = "s2"
	// Staging to s1 is expensive, to s2 free.
	b.Stage = func(from, to string, bytes int64) float64 {
		if from == to {
			return 0
		}
		return 10000
	}
	j := mkJob(32, 10, 10)
	j.InputBytes = 1 << 30
	b.Submit(j)
	if testSyms.Str(j.Machine) != "small" { // small is at site s2, next to the data
		t.Errorf("data-aware routed to %q, want small (co-located with data)", testSyms.Str(j.Machine))
	}
	k.Run()
}

func TestBrokerTagging(t *testing.T) {
	k := des.New()
	b := New(k, testSyms, Random, simrand.New(1), twoMachines(k))
	j := mkJob(8, 10, 10)
	b.Submit(j)
	if j.Attr.BrokerJobID == job.SymNone || j.Attr.SubmitVia != job.SymMetasched {
		t.Errorf("broker attributes missing: %+v", j.Attr)
	}
	// Partial coverage.
	b2 := New(k, testSyms, Random, simrand.New(7), twoMachines(k))
	b2.TagCoverage = 0
	j2 := mkJob(8, 10, 10)
	b2.Submit(j2)
	if j2.Attr.BrokerJobID != job.SymNone {
		t.Errorf("broker tag leaked at zero coverage: %+v", j2.Attr)
	}
	k.Run()
}

func TestCoAllocate(t *testing.T) {
	k := des.New()
	scheds := twoMachines(k)
	b := New(k, testSyms, BestEstimated, simrand.New(1), scheds)
	p1 := mkJob(256, 100, 200)
	p2 := mkJob(32, 100, 200)
	start, err := b.CoAllocate([]*job.Job{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if p1.StartTime != start || p2.StartTime != start {
		t.Errorf("parts started at %v and %v, want synchronized %v",
			p1.StartTime, p2.StartTime, start)
	}
	if p1.Machine == p2.Machine {
		t.Error("co-allocation placed both parts on one machine")
	}
	if p1.Attr.CoAllocID == job.SymNone || p1.Attr.CoAllocID != p2.Attr.CoAllocID {
		t.Errorf("co-allocation ids wrong: %q vs %q", testSyms.Str(p1.Attr.CoAllocID), testSyms.Str(p2.Attr.CoAllocID))
	}
	if b.CoAllocations() != 1 {
		t.Errorf("CoAllocations = %d, want 1", b.CoAllocations())
	}
	if p1.State != job.StateCompleted || p2.State != job.StateCompleted {
		t.Errorf("parts did not complete: %v %v", p1.State, p2.State)
	}
}

func TestCoAllocateErrors(t *testing.T) {
	k := des.New()
	b := New(k, testSyms, Random, simrand.New(1), twoMachines(k))
	if _, err := b.CoAllocate([]*job.Job{mkJob(1, 1, 1)}); err == nil {
		t.Error("single-part co-allocation accepted")
	}
	// Three parts but only two machines → no distinct machine for part 3.
	parts := []*job.Job{mkJob(8, 10, 10), mkJob(8, 10, 10), mkJob(8, 10, 10)}
	_, err := b.CoAllocate(parts)
	if err == nil || !strings.Contains(err.Error(), "no machine") {
		t.Errorf("expected distinct-machine failure, got %v", err)
	}
}

// fourMachines builds an idle federation of easy schedulers: a and b with
// 64 cores, c with 128, d with 32.
func fourMachines(k *des.Kernel) []*sched.Scheduler {
	var out []*sched.Scheduler
	for _, m := range []struct {
		id    string
		nodes int
	}{{"a", 8}, {"b", 8}, {"c", 16}, {"d", 4}} {
		out = append(out, sched.MustNamed(k, testSyms, &grid.Machine{ID: m.id, Site: "s-" + m.id,
			Nodes: m.nodes, CoresPerNode: 8, NUPerCoreHour: 1}, "easy"))
	}
	return out
}

// TestCoAllocatePinsChoice pins the machines and the agreed start of a
// co-allocation over a fixed federation: a is full until t=1000, b half
// full until t=500, c idle, d full until t=2000. The 48-core part takes c
// (start 0, ahead of b at 500 and a at 1000), the 32-core part b (0), and
// the 16-core part a (1000, ahead of d at 2000); the latest start plus the
// 10-minute margin is the agreed start. Each part is decided after one
// estimate: the other candidates' bounds already lose, so 5 are pruned.
func TestCoAllocatePinsChoice(t *testing.T) {
	k := des.New()
	scheds := fourMachines(k)
	scheds[0].Submit(mkJob(64, 1000, 1000))
	scheds[1].Submit(mkJob(32, 500, 500))
	scheds[3].Submit(mkJob(32, 2000, 2000))
	b := New(k, testSyms, BestEstimated, simrand.New(1), scheds)
	parts := []*job.Job{mkJob(48, 100, 100), mkJob(32, 100, 100), mkJob(16, 100, 100)}
	start, err := b.CoAllocate(parts)
	if err != nil {
		t.Fatal(err)
	}
	if start != 1000+10*des.Minute {
		t.Errorf("agreed start %v, want %v", start, 1000+10*des.Minute)
	}
	if b.Pruned() != 5 {
		t.Errorf("Pruned = %d, want 5", b.Pruned())
	}
	k.Run()
	for i, want := range []string{"c", "b", "a"} {
		if p := parts[i]; testSyms.Str(p.Machine) != want || p.StartTime != start {
			t.Errorf("part %d (%d cores) on %q at %v, want %q at %v",
				i, p.Cores, testSyms.Str(p.Machine), p.StartTime, want, start)
		}
	}
}

// TestPrunedCountsSkippedEstimates: with one idle machine whose bound
// beats every other machine's, routing estimates the idle one and skips
// the rest; a tie on the winning score goes to the first machine, and a
// machine that has lost every core for good is skipped on its bound alone.
func TestPrunedCountsSkippedEstimates(t *testing.T) {
	k := des.New()
	scheds := fourMachines(k)
	scheds[0].Submit(mkJob(64, 1000, 1000))
	scheds[3].FailNodes(32, des.Forever)
	b := New(k, testSyms, BestEstimated, simrand.New(1), scheds)
	j := mkJob(48, 100, 100)
	b.Submit(j) // a at 1000, b and c at 0: b wins the tie, a and c are skipped
	if testSyms.Str(j.Machine) != "b" || b.Pruned() != 2 {
		t.Errorf("routed to %q with %d pruned, want b with 2 (a and c)", testSyms.Str(j.Machine), b.Pruned())
	}
	b.Submit(mkJob(4, 100, 100)) // b still has 16 cores free: 0 again, so c, a and d are skipped
	if b.Routed() != 2 || b.Pruned() != 2+3 {
		t.Errorf("Routed %d, Pruned %d, want 2 and 5", b.Routed(), b.Pruned())
	}
	k.RunUntil(5000)
}
