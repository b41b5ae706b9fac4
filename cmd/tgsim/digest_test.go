package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestRunDirDigests pins the bytes of an exported run directory: the
// accounting records, the obs event stream, the modality table and the
// OpenMetrics exposition of a plain and a faulted quick-scale run, and the
// stream and SLO families of a -stream -slo run plus the dashboard
// payloads (replayWant) its -replay re-export writes. A refactor that keeps
// these digests changed nothing a run produces.
func TestRunDirDigests(t *testing.T) {
	silence(t)
	cases := []struct {
		name       string
		args       []string
		want       map[string]string
		replayWant map[string]string
	}{
		{"quick-seed7", []string{"-scale", "quick", "-seed", "7"}, map[string]string{
			"acct.jsonl":   "08ba629b55415fa38b7294cf291c2f52a671e583c8bceefcb466936b07a34811",
			"obs.jsonl":    "355d920ad2aefc65cab581a811aa9c5f63065a4ad79b83a6ab4cd28badd65f16",
			"modality.txt": "410fc39e208ab51ef176120b20f4dd28937934d0ff86e69648ee66875b2f9912",
			"metrics.om":   "4f02ebbd33eac9905e8e8d1783b9e076ff20da961bf3e9f88a5241bb4d765d66",
		}, nil},
		{"quick-seed13-faults", []string{"-scale", "quick", "-seed", "13", "-faults", "1", "-checkpoint", "15"}, map[string]string{
			"acct.jsonl":   "4dd88dfdd67dde28a70b9af474bf67189a7d69672dbc4a4b83a661bcc4cef84e",
			"obs.jsonl":    "3ef67b31423c489bceaa27f96641fc0bf0fb2e0a1f4c19f472c60c429d5398c5",
			"modality.txt": "7e9ef687e782159e0cab20d49bfc57315c87244f4c5d7278df83f248fe742e56",
			"metrics.om":   "7d8531ca7638f04237a5dd73e53f8ca88c74bfa422a093bdffe010fd6f33d77a",
		}, nil},
		{"quick-seed7-stream-slo", []string{"-scale", "quick", "-seed", "7", "-stream", "-slo"}, map[string]string{
			"metrics.om": "ee31d288b6af9562af1f298a40958b4c9af65bb74825c6da6d64816f0068051f",
		}, map[string]string{
			"modalities.json": "1e128de39517d799b354b2ebc462f06b374b6ca83040b493efcad7dd55df87c6",
			"drift.json":      "7e6e47bcf0cdc30088a8bf954859242d590f83900f0a514b9795491112257259",
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "run")
			if err := run(append(c.args, "-quiet", "-export", dir)); err != nil {
				t.Fatal(err)
			}
			checkDigests(t, dir, c.want)
			if c.replayWant == nil {
				return
			}
			replayDir := filepath.Join(t.TempDir(), "replay")
			if err := run([]string{"-replay", dir, "-quiet", "-export", replayDir}); err != nil {
				t.Fatal(err)
			}
			checkDigests(t, replayDir, c.replayWant)
		})
	}
}

// checkDigests compares the sha256 of each named file in dir.
func checkDigests(t *testing.T, dir string, want map[string]string) {
	t.Helper()
	for file, sum := range want {
		b, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		got := sha256.Sum256(b)
		if hex.EncodeToString(got[:]) != sum {
			t.Errorf("%s: sha256 %x, want %s", file, got, sum)
		}
	}
}
