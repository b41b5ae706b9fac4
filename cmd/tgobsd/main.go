// tgobsd is the standalone observatory daemon: it ingests telemetry
// pushed by any number of concurrent runs (tgsim -push, fleet reps,
// replays), maintains one streaming processor and one accounting database
// per run, and serves a federated multi-run console.
//
//	tgobsd -listen 127.0.0.1:9310 -http 127.0.0.1:9311
//	tgsim -scale quick -seed 7 -push 127.0.0.1:9310 -push-id a7
//
// With -merge, tgobsd instead runs as an offline federator: it reads
// exported per-run modalities.json documents and prints the fleet-level
// merge, byte-identical to what a live daemon holding those runs serves
// on /modalities (the CI determinism gate relies on this).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/tgsim/tgmod/internal/observatory"
	"github.com/tgsim/tgmod/internal/stream"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("tgobsd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:9310", "push ingest address (host:port, or unix:PATH)")
	httpAddr := fs.String("http", "127.0.0.1:9311", "console HTTP address")
	finalOut := fs.String("final-out", "", "directory for per-run final artifacts (<id>.modality.txt, <id>.modalities.json)")
	walDir := fs.String("wal", "", "directory for per-run write-ahead journals; on startup, runs found there are recovered")
	grace := fs.Duration("grace", 10*time.Second, "drain window for in-flight connections on SIGINT/SIGTERM")
	pprofFlag := fs.Bool("pprof", false, "mount the net/http/pprof endpoints on the console at /debug/pprof/")
	merge := fs.Bool("merge", false, "offline mode: merge per-run modalities.json files named as args and print the fleet document")
	quiet := fs.Bool("quiet", false, "suppress connection lifecycle logging")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *merge {
		return runMerge(fs.Args())
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "tgobsd: unexpected arguments %q (did you mean -merge?)\n", fs.Args())
		return 2
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	if *quiet {
		logger = nil
	}
	d := observatory.NewDaemon(observatory.Config{
		FinalDir: *finalOut,
		WALDir:   *walDir,
		Pprof:    *pprofFlag,
		Log:      logger,
	})
	if *walDir != "" {
		n, err := d.Recover()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tgobsd: recovery: %v\n", err)
			return 2
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "tgobsd: recovered %d run(s) from %s\n", n, *walDir)
		}
	}
	ingest, err := d.ListenIngest(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tgobsd: listen: %v\n", err)
		return 2
	}
	console, err := d.ServeConsole(*httpAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tgobsd: http: %v\n", err)
		d.Close()
		return 2
	}
	// The ready line is a stable contract for scripts (CI greps for it).
	fmt.Fprintf(os.Stderr, "tgobsd: ready ingest=%s http=%s\n", ingest, console)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "tgobsd: %v, draining (up to %s; signal again to force)\n", s, *grace)
	done := make(chan error, 1)
	go func() { done <- d.Shutdown(*grace) }()
	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintf(os.Stderr, "tgobsd: shutdown: %v\n", err)
			return 2
		}
	case s := <-sig:
		// Abandon the drain: process exit severs everything, and the WAL
		// (synced on its batch cadence) covers whatever is cut off.
		fmt.Fprintf(os.Stderr, "tgobsd: %v again, forcing exit\n", s)
		return 2
	}
	return 0
}

// runMerge federates exported per-run modality payloads offline. Run IDs
// are the file base names (with .modalities.json / .json stripped); the
// merge is computed over runs sorted by ID, exactly as the live daemon
// orders its /modalities document.
func runMerge(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "tgobsd: -merge wants one or more modalities.json files")
		return 2
	}
	type runDoc struct {
		id string
		p  *stream.ModalitiesPayload
	}
	docs := make([]runDoc, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tgobsd: %v\n", err)
			return 2
		}
		p, err := observatory.ParseModalities(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tgobsd: %s: %v\n", path, err)
			return 2
		}
		id := filepath.Base(path)
		id = strings.TrimSuffix(id, ".modalities.json")
		id = strings.TrimSuffix(id, ".json")
		docs = append(docs, runDoc{id: id, p: p})
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].id < docs[j].id })
	ids := make([]string, len(docs))
	ps := make([]*stream.ModalitiesPayload, len(docs))
	for i, d := range docs {
		ids[i] = d.id
		ps[i] = d.p
	}
	os.Stdout.Write(stream.MarshalPayload(observatory.MergeModalities(ids, ps)))
	return 0
}
