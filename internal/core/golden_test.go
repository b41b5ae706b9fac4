package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/scenario"
)

// classifyDigest hashes every result's (JobID, Modality, Source, Evidence,
// CampaignID), in record order, and counts the inferred decisions.
func classifyDigest(results []core.Result, syms *job.Symbols) (digest string, bursts, chains int) {
	h := sha256.New()
	var id [8]byte
	for _, r := range results {
		binary.LittleEndian.PutUint64(id[:], uint64(r.JobID))
		h.Write(id[:])
		for _, s := range []string{string(r.Rule.Modality()), r.Rule.Source().String(), r.Rule.String(), r.CampaignID(syms)} {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
		switch r.Rule {
		case core.RuleBurst:
			bursts++
		case core.RuleChain:
			chains++
		}
	}
	return hex.EncodeToString(h.Sum(nil)), bursts, chains
}

// TestClassifyGolden pins every classifier decision, inferred campaign
// numbering included, on seed 7's standard scenario at both scales.
func TestClassifyGolden(t *testing.T) {
	cases := []struct {
		name           string
		scale          experiments.Scale
		bursts, chains int
		digest         string
	}{
		{"quick", experiments.Quick, 445, 14,
			"edbc611641cbb41364577a9ad7636f4dc2ed430c6452ef4f794866955e857edc"},
		{"full", experiments.Full, 11386, 584,
			"8265333976b8d1b6f88c0bcb8476723c77b9ed570ed678bba8c3cdab95d610d0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := scenario.Run(experiments.StandardConfig(7, tc.scale))
			if err != nil {
				t.Fatal(err)
			}
			got := core.NewClassifier(core.Config{LargestCores: res.LargestCores}).Classify(res.Central)
			digest, bursts, chains := classifyDigest(got, res.Central.Syms())
			if bursts != tc.bursts || chains != tc.chains {
				t.Errorf("inferred %d burst and %d chain jobs, want %d and %d",
					bursts, chains, tc.bursts, tc.chains)
			}
			if digest != tc.digest {
				t.Errorf("decision digest %s, want %s", digest, tc.digest)
			}
		})
	}
}
