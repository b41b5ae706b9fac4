package main

import (
	"strings"
	"testing"
)

func TestSelectGens(t *testing.T) {
	valid := " (valid: T1,T2,T3,T4,F1,F2,F3,F4,F5,F6,F7,F8,F9,GV,CC,SQ,FS,CR,OV,MA,SL,PX,FL,FT,DR)"
	for only, want := range map[string]string{
		"":          "all",
		"T1,T3,PX":  "T1,T3,PX",
		"PX,T1":     "T1,PX",
		"px":        "PX",
		" t3 , px ": "T3,PX",
		"T1,":       "T1",
		"X9":        "unknown experiment id X9" + valid,
		"T1,x9,Q":   "unknown experiment id X9,Q" + valid,
	} {
		selected, err := selectGens(only)
		ids := make([]string, len(selected))
		for i, g := range selected {
			ids[i] = g.id
		}
		got := strings.Join(ids, ",")
		switch {
		case err != nil:
			got = err.Error()
		case len(selected) == len(gens):
			got = "all"
		}
		if got != want {
			t.Errorf("selectGens(%q) = %q, want %q", only, got, want)
		}
	}
}
