package regress

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecodeManifest: any manifest.json either decodes or fails with an
// error wrapping ErrBadManifest, and a decoded manifest survives a JSON
// round trip unchanged.
func FuzzDecodeManifest(f *testing.F) {
	f.Add([]byte(`{"schema":1,"seed":7,"largest_cores":99072,"end_time_s":1555200}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seed":-1}`))
	f.Add([]byte(`{"schema":1`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadManifest) {
				t.Fatalf("decodeManifest error does not wrap ErrBadManifest: %v", err)
			}
			return
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("decoded manifest does not encode: %v", err)
		}
		again, err := decodeManifest(bytes.NewReader(enc))
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("manifest %+v changed across a round trip: %+v, %v", m, again, err)
		}
	})
}

// TestLoadRunDirBadManifest: a run directory whose manifest does not
// decode fails to load with an error wrapping ErrBadManifest.
func TestLoadRunDirBadManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte(`{"seed":"seven"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRunDir(dir); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("LoadRunDir with a bad manifest: %v, want an ErrBadManifest", err)
	}
}
