package observatory

import (
	"bytes"
	"errors"
	"testing"

	"github.com/tgsim/tgmod/internal/stream"
)

// FuzzParseModalities: any input either parses or fails with an error
// wrapping ErrBadModalities, and a parsed document re-encodes to bytes
// that parse back to the same document.
func FuzzParseModalities(f *testing.F) {
	f.Add(stream.MarshalPayload(&stream.ModalitiesPayload{
		At: 86400, Ingested: 12,
		Windows: []stream.ModalityWindow{{Window: "1d", TotalJobs: 12, TotalNUs: 340.5,
			Rows: []stream.ModalityRow{{Modality: "gateway", Jobs: 7, NUs: 20, Confidence: 0.9}}}},
		Lifetime: stream.ModalityWindow{Window: "lifetime", TotalJobs: 12, TotalNUs: 340.5},
	}))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"windows": [{"rows": 3}]}`))
	f.Add([]byte(`{"at": "soon"`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseModalities(data)
		if err != nil {
			if !errors.Is(err, ErrBadModalities) {
				t.Fatalf("ParseModalities error does not wrap ErrBadModalities: %v", err)
			}
			return
		}
		enc := stream.MarshalPayload(p)
		again, err := ParseModalities(enc)
		if err != nil {
			t.Fatalf("re-encoded document does not parse: %v\n%s", err, enc)
		}
		if !bytes.Equal(stream.MarshalPayload(again), enc) {
			t.Fatalf("document changed across a re-encode:\n%s\n%s", enc, stream.MarshalPayload(again))
		}
	})
}
