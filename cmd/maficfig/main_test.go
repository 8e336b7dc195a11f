package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mafic/internal/experiment"
)

func TestListPrintsEveryFigureInOrder(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, id := range experiment.AllFigureIDs() {
		want.WriteString(string(id) + "\n")
	}
	if out.String() != want.String() {
		t.Fatalf("-list printed\n%s\nwant\n%s", out.String(), want.String())
	}
}

func TestUnknownFigureFails(t *testing.T) {
	err := run([]string{"-fig", "nope"}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("-fig nope: got %v, want an error naming nope", err)
	}
}

func TestNoFigureRequestedFails(t *testing.T) {
	if err := run(nil, new(bytes.Buffer)); err == nil {
		t.Fatal("neither -fig nor -all: want an error")
	}
}

func TestQuickFigureJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "4b", "-quick", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var fig experiment.Figure
	dec := json.NewDecoder(&out)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fig); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if fig.ID != "fig4b" || len(fig.Series) != 3 {
		t.Fatalf("got figure %q with %d series, want fig4b with 3", fig.ID, len(fig.Series))
	}
	if dec.More() {
		t.Fatal("-fig 4b -json printed more than one figure")
	}
}
