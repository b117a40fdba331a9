package main

import (
	"strings"
	"testing"
)

func TestSelectFigures(t *testing.T) {
	ids := []string{"2", "11", "zoo"}
	if want, err := selectFigures("", ids); err != nil || len(want) != 0 {
		t.Errorf(`"" = %v, %v; want the empty set (everything)`, want, err)
	}
	want, err := selectFigures("11, zoo", ids)
	if err != nil || len(want) != 2 || !want["11"] || !want["zoo"] {
		t.Errorf(`"11, zoo" = %v, %v`, want, err)
	}
	for _, arg := range []string{"12", "2,nope", "2,,11", "1"} {
		_, err := selectFigures(arg, ids)
		if err == nil {
			t.Errorf("%q accepted", arg)
			continue
		}
		if !strings.Contains(err.Error(), "2,11,zoo") {
			t.Errorf("%q: error %q does not list the valid ids", arg, err)
		}
	}
}
