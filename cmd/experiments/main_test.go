package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestSelectFigures(t *testing.T) {
	figs := []experiments.Figure{{ID: "2"}, {ID: "11"}, {ID: "zoo"}}
	if got, err := selectFigures("", figs); err != nil || ids(got) != "2,11,zoo" {
		t.Errorf(`"" = %q, %v; want every figure`, ids(got), err)
	}
	if got, err := selectFigures("zoo, 11", figs); err != nil || ids(got) != "11,zoo" {
		t.Errorf(`"zoo, 11" = %q, %v; want 11,zoo in registry order`, ids(got), err)
	}
	for _, arg := range []string{"12", "2,nope", "2,,11", "1"} {
		_, err := selectFigures(arg, figs)
		if err == nil {
			t.Errorf("%q accepted", arg)
			continue
		}
		if !strings.Contains(err.Error(), "2,11,zoo") {
			t.Errorf("%q: error %q does not list the valid ids", arg, err)
		}
	}
}
