package experiments

import (
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

// sharedEnv builds the environment once; predictor characterization is the
// expensive part.
var sharedEnv *Env

func env(t *testing.T) *Env {
	t.Helper()
	if sharedEnv == nil {
		e, err := NewEnv()
		if err != nil {
			t.Fatal(err)
		}
		sharedEnv = e
	}
	return sharedEnv
}

func TestAllExperimentsRun(t *testing.T) {
	e := env(t)
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			if err := Run(id, e, io.Discard); err != nil {
				t.Fatalf("experiment %s failed: %v", id, err)
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := Run("nope", env(t), io.Discard); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every figure/table of the paper's evaluation has a registered
	// regenerator (the README's "Experiment ids" table).
	want := []string{
		"fig2a", "fig2b", "fig3", "fig4", "fig4j", "fig5", "fig7",
		"fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "obs", "tab1", "tab2",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

func TestFig7Headline(t *testing.T) {
	// The Fig 7 output's Average row must show FlexWatts gaining over IVR
	// at 4W (the paper's >22%; the reproduction lands >8%).
	e := env(t)
	var b strings.Builder
	if err := Run("fig7", e, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Average") {
		t.Fatal("no Average row")
	}
	for _, bench := range workload.SPECCPU2006().Names() {
		if !strings.Contains(out, bench) {
			t.Errorf("benchmark %s missing from Fig 7", bench)
		}
	}
}

func TestFig4AccuracySummary(t *testing.T) {
	// The validation summary must report >= 97% accuracy in every cell
	// (§4.3 reports 98.6% worst case, 99.1-99.4% averages).
	e := env(t)
	var b strings.Builder
	if err := Run("fig4", e, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	idx := strings.Index(out, "validation accuracy summary")
	if idx < 0 {
		t.Fatal("no accuracy summary")
	}
	rows := 0
	for _, l := range strings.Split(out[idx:], "\n") {
		fields := strings.Fields(l)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "IVR", "MBVR", "LDO":
		default:
			continue
		}
		rows++
		for _, cell := range fields[1:] {
			v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
			if err != nil {
				t.Fatalf("bad accuracy cell %q", cell)
			}
			if v < 97 {
				t.Errorf("%s accuracy %.2f%% below 97%%", fields[0], v)
			}
		}
	}
	if rows != 3 {
		t.Errorf("expected 3 summary rows, found %d", rows)
	}
}
