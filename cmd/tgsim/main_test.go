package main

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/observatory"
	"github.com/tgsim/tgmod/internal/regress"
	"github.com/tgsim/tgmod/internal/scenario"
)

// silence routes the command's stdout and stderr to the null device for
// the rest of the test.
func silence(t *testing.T) {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = null, null
	t.Cleanup(func() {
		os.Stdout, os.Stderr = stdout, stderr
		null.Close()
	})
}

// TestRejectsIgnoredFlags: a flag the selected mode never reads is a usage
// error (exit 2) raised before anything runs or is written — one case per
// rule, plus a stray positional argument.
func TestRejectsIgnoredFlags(t *testing.T) {
	silence(t)
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	for _, args := range [][]string{
		{"-replay", out("run"), "-seed", "3"},
		{"-reps", "2", "-dump-config", out("x.json")},
		{"-reps", "2", "-chrome-trace", out("ct.json")},
		{"-reps", "2", "-slo"},
		{"-reps", "2", "-strict-obs"},
		{"-config", out("c.json"), "-faults", "1"},
		{"-config", out("c.json"), "-policy", "gang"},
		{"-config", out("c.json"), "-seed", "9"},
		{"-dump-config", out("d.json"), "-export", out("exp")},
		{"-quiet", "-csv-dir", out("csv")},
		{"-scale", "quick", "-days", "3"},
		{"-parallel", "2"},
		{"-reps", "1", "-parallel", "2"},
		{"-replay-speed", "2"},
		{"-stream", "-strict-obs"},
		{"-push-id", "a7"},
		{"-push-retry", "3"},
		{"-pprof"},
		{"-mtbf", "5"},
		{"-analysis", "-strict-obs"},
		{"-strict-obs"},
	} {
		err := run(args)
		if err == nil || exitCode(err) != exitErr || !strings.Contains(err.Error(), "has no effect") {
			t.Errorf("run(%q) = %v (exit %d), want a usage error", args, err, exitCode(err))
		}
	}
	if err := run([]string{"-http-hold", "false"}); err == nil || exitCode(err) != exitErr {
		t.Errorf("stray positional argument: run = %v, want a usage error", err)
	}
	if written, _ := os.ReadDir(dir); len(written) > 0 {
		t.Errorf("rejected invocations wrote %d file(s)", len(written))
	}
}

// TestDumpConfigRefusesFaults: a fault-injected scenario has no config
// file form, so -dump-config fails instead of writing a fault-free file.
func TestDumpConfigRefusesFaults(t *testing.T) {
	silence(t)
	path := filepath.Join(t.TempDir(), "c.json")
	err := run([]string{"-scale", "quick", "-faults", "1", "-dump-config", path})
	if err == nil || exitCode(err) != exitErr || !strings.Contains(err.Error(), "Faults") {
		t.Fatalf("run = %v, want an error naming Faults", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused dump left %s behind", path)
	}
}

// TestExportWritesModalityTable: -export puts the run's usage-by-modality
// table in the run directory as modality.txt, byte-equal to
// core.ModalityTable for the same run, and a replay of that directory
// re-exports the same bytes.
func TestExportWritesModalityTable(t *testing.T) {
	silence(t)
	live := filepath.Join(t.TempDir(), "live")
	replayed := filepath.Join(t.TempDir(), "replay")
	if err := run([]string{"-scale", "quick", "-seed", "7", "-quiet", "-export", live}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-replay", live, "-quiet", "-export", replayed}); err != nil {
		t.Fatal(err)
	}

	res, err := scenario.Run(experiments.StandardConfig(7, experiments.Quick))
	if err != nil {
		t.Fatal(err)
	}
	results := core.NewClassifier(core.Config{LargestCores: res.LargestCores}).Classify(res.Central)
	var want bytes.Buffer
	if err := core.ModalityTable(core.BuildReport(res.Central, results)).WriteText(&want); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{live, replayed} {
		got, err := os.ReadFile(filepath.Join(dir, regress.ModalityFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s/%s differs from core.ModalityTable:\n%s\nwant:\n%s",
				dir, regress.ModalityFile, got, want.Bytes())
		}
	}
}

// TestPushLifecycle drives the push lifecycle single runs and fleets
// share against an in-process daemon: a single run and a fleet whose
// replications dial concurrently both finish without loss under
// -strict-obs, the daemon's final report byte-matches the run directory's
// modality.txt, a fleet on one worker finishes each replication's push
// before the next one dials, and a fleet that cannot connect fails with
// exit code 3.
func TestPushLifecycle(t *testing.T) {
	silence(t)
	d := observatory.NewDaemon(observatory.Config{})
	addr, err := d.ListenIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	dir := filepath.Join(t.TempDir(), "run")
	if err := run([]string{"-scale", "quick", "-seed", "7", "-push", addr, "-push-id", "a7",
		"-strict-obs", "-export", dir, "-quiet"}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, regress.ModalityFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.RunReport("a7"); !bytes.Equal(got, want) {
		t.Errorf("daemon report differs from the run directory's %s", regress.ModalityFile)
	}

	if err := run([]string{"-scale", "quick", "-seed", "11", "-reps", "3", "-parallel", "3",
		"-push", addr, "-push-id", "f", "-strict-obs", "-quiet"}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"f-r00", "f-r01", "f-r02"} {
		if d.RunReport(id) == nil {
			t.Errorf("fleet replication %s has no final report", id)
		}
	}

	// A proxy in front of the daemon notes, as each connection arrives,
	// whether replication 0's run is already final.
	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	finalAtDial := make(chan bool, 4)
	go func() {
		for {
			c, err := front.Accept()
			if err != nil {
				return
			}
			finalAtDial <- d.RunReport("s-r00") != nil
			b, err := net.Dial("tcp", addr)
			if err != nil {
				c.Close()
				continue
			}
			pipe := func(dst, src net.Conn) {
				io.Copy(dst, src)
				dst.Close()
				src.Close()
			}
			go pipe(b, c)
			go pipe(c, b)
		}
	}()
	if err := run([]string{"-scale", "quick", "-seed", "11", "-reps", "2", "-parallel", "1",
		"-push", front.Addr().String(), "-push-id", "s", "-strict-obs", "-quiet"}); err != nil {
		t.Fatal(err)
	}
	if len(finalAtDial) != 2 || <-finalAtDial || !<-finalAtDial {
		t.Error("a one-worker fleet's second replication dialed before the first one's run was final")
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()
	err = run([]string{"-scale", "quick", "-reps", "2", "-push", dead, "-push-retry", "0", "-strict-obs", "-quiet"})
	if exitCode(err) != exitObsLoss || !strings.Contains(err.Error(), "2 of 2 replications could not connect") {
		t.Errorf("unreachable daemon: run = %v (exit %d), want exit %d", err, exitCode(err), exitObsLoss)
	}
}
