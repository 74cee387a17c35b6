package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/flexwatts/report"
)

// TestDatasetsWellFormed checks the typed layer's invariants for every
// registered experiment: a stamped id, a title, at least one table, every
// table fully rectangular (AddRow enforces this at build time; this guards
// the stored form), and every percentage cell carrying its fraction.
func TestDatasetsWellFormed(t *testing.T) {
	e := env(t)
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			d, err := Dataset(id, e)
			if err != nil {
				t.Fatal(err)
			}
			if d.ID != id {
				t.Errorf("dataset id = %q, want %q", d.ID, id)
			}
			if d.Title == "" {
				t.Error("dataset has no title")
			}
			if len(d.Tables) == 0 {
				t.Fatal("dataset has no tables")
			}
			for _, tab := range d.Tables {
				if len(tab.Columns) == 0 {
					t.Errorf("table %q has no columns", tab.Title)
				}
				for ri, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Fatalf("table %q row %d width %d != %d columns",
							tab.Title, ri, len(row), len(tab.Columns))
					}
					for ci, cell := range row {
						if cell.Kind == report.KindPct && !strings.HasSuffix(cell.Text, "%") {
							t.Errorf("table %q cell (%d,%d): pct cell text %q",
								tab.Title, ri, ci, cell.Text)
						}
						if cell.Kind == "" || cell.Text == "" && cell.Kind == report.KindString && ci == 0 {
							t.Errorf("table %q cell (%d,%d) untyped or empty key: %+v",
								tab.Title, ri, ci, cell)
						}
					}
				}
			}
		})
	}
}

// TestJSONRendererAllExperiments renders every experiment as JSON and
// round-trips it through encoding/json: the decoded dataset must equal the
// original, so machine consumers lose nothing the driver computed.
func TestJSONRendererAllExperiments(t *testing.T) {
	e := env(t)
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			d, err := Dataset(id, e)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := d.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			var got report.Dataset
			if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
				t.Fatalf("%s JSON does not parse: %v", id, err)
			}
			if !reflect.DeepEqual(&got, d) {
				t.Errorf("%s dataset does not round-trip through JSON", id)
			}
		})
	}
}

// TestFig8cJSONDeterministic renders Fig 8(c) as JSON 50 times. Its
// battery powers are float sums over package states, visited in a fixed
// order, so every rendering carries the same bits; the ASCII golden, at
// 0.1% steps, cannot see a change in the last bits.
func TestFig8cJSONDeterministic(t *testing.T) {
	e := env(t)
	var first []byte
	for i := 0; i < 50; i++ {
		d, err := Dataset("fig8c", e)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("rendering %d differs from the first:\n%s\n%s", i, buf.Bytes(), first)
		}
	}
}

// TestCSVRendererAllExperiments renders every experiment as CSV and parses
// each table block back: the record count and width must match the dataset.
func TestCSVRendererAllExperiments(t *testing.T) {
	e := env(t)
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			d, err := Dataset(id, e)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := d.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			blocks := strings.Split(buf.String(), "\n\n")
			if len(blocks) != len(d.Tables) {
				t.Fatalf("%d CSV blocks for %d tables", len(blocks), len(d.Tables))
			}
			for bi, block := range blocks {
				var records [][]string
				for _, line := range strings.Split(block, "\n") {
					if strings.HasPrefix(line, "#") || strings.TrimSpace(line) == "" {
						continue
					}
					rec, err := csv.NewReader(strings.NewReader(line)).Read()
					if err != nil {
						t.Fatalf("table %d CSV line %q does not parse: %v", bi, line, err)
					}
					records = append(records, rec)
				}
				tab := d.Tables[bi]
				if len(records) != len(tab.Rows)+1 {
					t.Fatalf("table %q: %d records, want header + %d rows",
						tab.Title, len(records), len(tab.Rows))
				}
				for _, rec := range records {
					if len(rec) != len(tab.Columns) {
						t.Errorf("table %q: record width %d != %d columns",
							tab.Title, len(rec), len(tab.Columns))
					}
				}
			}
		})
	}
}

// TestDatasetMeta spot-checks the per-experiment metadata the serving layer
// exposes: Fig 7 carries its TDP and PDN plotting order.
func TestDatasetMeta(t *testing.T) {
	d, err := Dataset("fig7", env(t))
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta["tdp"] != "4" {
		t.Errorf("fig7 meta tdp = %q, want 4", d.Meta["tdp"])
	}
	if d.Meta["pdns"] != "IVR,MBVR,LDO,I+MBVR,FlexWatts" {
		t.Errorf("fig7 meta pdns = %q", d.Meta["pdns"])
	}
}
