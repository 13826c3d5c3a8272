package analysis

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestWriteReportContainsEverything renders every section of one outcome
// alone: each carries its own heading and no other section's, and in
// print order they concatenate to the whole report, which is what
// WriteReport and the "all" selection print.
func TestWriteReportContainsEverything(t *testing.T) {
	o := testOutcome(t)
	headings := map[string]string{
		"table1": "Table 1:", "figure1": "Figure 1:", "nsstability": "§4.1 NS stability",
		"table2": "Table 2:", "rdapfail": "§4.2 RDAP failures", "figure2": "Figure 2:",
		"table3": "Table 3:", "table4": "Table 4:", "table5": "Table 5:",
		"blocklists": "§4.3 blocklists", "nod": "§4.4 SIE-NOD", "cctld": "§4.4 ccTLD (.nl)",
		"rzu": "rapid zone update what-if", "mail": "mail infrastructure",
	}
	if got := Sections(); len(got) != len(headings) {
		t.Fatalf("sections %v, want the %d in this table", got, len(headings))
	}
	var concat bytes.Buffer
	for _, name := range Sections() {
		var buf bytes.Buffer
		if err := WriteOutcome(&buf, *o, name); err != nil {
			t.Fatal(err)
		}
		text := buf.String()
		for other, heading := range headings {
			if has := strings.Contains(text, heading); has != (other == name) {
				t.Errorf("section %s: contains %q = %t", name, heading, has)
			}
		}
		concat.Write(buf.Bytes())
	}
	var all, report bytes.Buffer
	if err := WriteOutcome(&all, *o, "all"); err != nil {
		t.Fatal(err)
	}
	if err := WriteReport(&report, testResults(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all.Bytes(), concat.Bytes()) || !bytes.Equal(report.Bytes(), concat.Bytes()) {
		t.Errorf("the sections do not concatenate to the report (%d, %d and %d bytes)",
			concat.Len(), all.Len(), report.Len())
	}
	if err := WriteOutcome(&all, *o, "table6"); err == nil {
		t.Error("an unknown section rendered without an error")
	}
}

// TestOutcomeIsPlainData walks Outcome's type tree: no pointer, map,
// channel, function or interface anywhere (time.Time holds a *Location),
// so an outcome cannot keep a campaign's graph alive. An outcome also
// survives a round trip through encoding/json.
func TestOutcomeIsPlainData(t *testing.T) {
	o := testOutcome(t)
	var back Outcome
	if b, err := json.Marshal(o); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, *o) {
		t.Errorf("outcome changed through JSON:\n%+v\n%+v", *o, back)
	}

	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %v", path, typ)
		case reflect.Slice, reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	walk("Outcome", reflect.TypeOf(Outcome{}))
}

// TestReduceCopiesNoStateOrLedgerEntry: Reduce reads the fleet's states
// through a sorted view of pointers and walks the .nl ledger in place, so
// it copies neither per entry. A copy of either costs at least 192 B per
// entry (a Registration; a DomainState is 256 B), so Reduce's whole
// allocation must stay under a third of that per watched state and .nl
// ledger entry. Copying both, Reduce allocated ≈ 292 B per entry on this
// campaign.
func TestReduceCopiesNoStateOrLedgerEntry(t *testing.T) {
	r := testResults(t)
	entries := r.Fleet.Watched()
	for range r.World.Registries[r.World.Cfg.CCTLD.TLD].Ledger() {
		entries++
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o := Reduce(r)
	runtime.ReadMemStats(&after)
	if o.Candidates == 0 {
		t.Fatal("degenerate outcome")
	}
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*entries)
	t.Logf("Reduce allocated %d B over %d states and ledger entries (%.1f B each)", got, entries, float64(got)/float64(entries))
	if got > limit {
		t.Errorf("Reduce allocated %d B, over %d B (64 B per watched state and .nl ledger entry): something copies them", got, limit)
	}
}

func TestWriteFigureCSV(t *testing.T) {
	fig := testOutcome(t).Figure1
	buckets := fig.Buckets
	var buf bytes.Buffer
	if err := WriteFigureCSV(&buf, fig); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(buckets)+1 {
		t.Fatalf("rows = %d, want %d", len(records), len(buckets)+1)
	}
	if records[0][0] != "bucket_seconds" || records[0][len(records[0])-1] != "All" {
		t.Errorf("header: %v", records[0])
	}
	// The 15m bucket row must carry the headline value.
	var found bool
	for _, row := range records[1:] {
		if row[1] == "15m" {
			found = true
			if row[0] != "900" {
				t.Errorf("15m bucket seconds = %s", row[0])
			}
		}
	}
	if !found {
		t.Error("15m bucket missing")
	}
}

func TestWriteFigureCSVEmptySeries(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFigureCSV(&buf, Figure{Buckets: []time.Duration{time.Minute}, Series: []Series{{Name: "x"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.0000") {
		t.Errorf("missing padded value:\n%s", buf.String())
	}
}
