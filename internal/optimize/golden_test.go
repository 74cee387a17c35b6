package optimize

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// searchGolden is the committed full-precision record of goldenSearches.
var searchGolden = filepath.Join("testdata", "search.golden")

// goldenSearches are the searches TestSearchGolden pins: the default space
// exhaustively at the bottom, middle and top of the TDP axis, and one
// seeded anneal over a 3 × 3 × 3 scale lattice.
func goldenSearches() []struct {
	Name string
	Spec Spec
} {
	scales := []float64{0.8, 1, 1.25}
	return []struct {
		Name string
		Spec Spec
	}{
		{"exhaustive-4W", Spec{TDP: 4, Strategy: Exhaustive}},
		{"exhaustive-18W", Spec{TDP: 18, Strategy: Exhaustive}},
		{"exhaustive-50W", Spec{TDP: 50, Strategy: Exhaustive}},
		{"anneal-10W", Spec{
			TDP: 10, LoadlineScales: scales, GuardbandScales: scales, VRScales: scales,
			Strategy: Anneal, Seed: 42, Budget: 64,
		}},
	}
}

// TestSearchGolden pins Engine.Run's results at full float64 precision:
// encoding/json writes the shortest decimal that round-trips each score, so
// any change to a single bit of the scoring path (the grid kernels, the
// §3.3 power-frequency inversion, the cost tables, the frontier) shows up
// here, where the experiment goldens only print rounded figures.
// Regenerate intentionally by deleting the golden and running the test
// once (it writes the missing file and fails, so a rerun checks it):
//
//	rm internal/optimize/testdata/search.golden && go test ./internal/optimize -run '^TestSearchGolden$'
func TestSearchGolden(t *testing.T) {
	type entry struct {
		Name   string
		Result Result
	}
	var entries []entry
	for _, g := range goldenSearches() {
		entries = append(entries, entry{g.Name, mustRun(t, testEngine(0), g.Spec)})
	}
	got, err := json.MarshalIndent(entries, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile(searchGolden)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(searchGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote missing %s; rerun to check it", searchGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("search results differ from %s:\n%s", searchGolden, firstLineDiff(got, want))
	}
}

// firstLineDiff reports the first line where got and want disagree.
func firstLineDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
