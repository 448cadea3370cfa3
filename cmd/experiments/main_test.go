package main

import (
	"strings"
	"testing"
)

func TestParseOnlySelectsKnownIDs(t *testing.T) {
	got, err := parseOnly(" Table1 ,fig13,,sec811")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !got["table1"] || !got["fig13"] || !got["sec811"] {
		t.Errorf("selected = %v, want table1, fig13 and sec811", got)
	}
	if got, err := parseOnly(""); err != nil || len(got) != 0 {
		t.Errorf("empty -only: selected %v, err %v; want none (run all)", got, err)
	}
}

func TestParseOnlyRejectsUnknownIDs(t *testing.T) {
	_, err := parseOnly("table1,sec8.1.1,fig99")
	if err == nil {
		t.Fatal("unknown experiment ids silently ignored")
	}
	pre, known, ok := strings.Cut(err.Error(), "(known:")
	if !ok {
		t.Fatalf("error %q does not list the known ids", err)
	}
	for _, id := range []string{"sec8.1.1", "fig99"} {
		if !strings.Contains(pre, id) {
			t.Errorf("error %q does not name unknown id %q", err, id)
		}
	}
	if strings.Contains(pre, "table1") {
		t.Errorf("valid id listed among the unknown: %q", pre)
	}
	for _, id := range experimentIDs {
		if !strings.Contains(known, id) {
			t.Errorf("known list %q lacks %q", known, id)
		}
	}
}
