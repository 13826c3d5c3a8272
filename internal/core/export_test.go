package core

import (
	"bytes"
	"testing"
	"time"

	"darkdns/internal/czds"
	"darkdns/internal/psl"
	"darkdns/internal/simclock"
)

func TestCandidateExportRoundTrip(t *testing.T) {
	clk := simclock.NewSim(t0)
	zones := czds.New()
	p := New(DefaultConfig(t0, t0.Add(time.Hour)), clk, psl.Default(), zones, nullQuerier{}, nil, nil, 1)
	for i, d := range []string{"a.com", "b.shop", "c.xyz"} {
		p.HandleEvent(event(t0.Add(time.Duration(i)*time.Minute), d))
	}
	for clk.Pending() > 0 { // let RDAP collections fire
		clk.Advance(24 * time.Hour)
	}

	want := p.Candidates()
	var buf bytes.Buffer
	if err := WriteCandidates(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCandidates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip %d → %d candidates", len(want), len(got))
	}
	for i := range want {
		if got[i].Domain != want[i].Domain || got[i].TLD != want[i].TLD {
			t.Errorf("candidate %d: %+v vs %+v", i, got[i], want[i])
		}
		if !got[i].SeenAt.Equal(want[i].SeenAt) {
			t.Errorf("candidate %d SeenAt: %v vs %v", i, got[i].SeenAt, want[i].SeenAt)
		}
		if got[i].RDAPOutcome != want[i].RDAPOutcome {
			t.Errorf("candidate %d outcome: %v vs %v", i, got[i].RDAPOutcome, want[i].RDAPOutcome)
		}
	}
}

func TestReadCandidatesRejectsWrongSchema(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("DCOL1\n")
	// varint length + wrong schema string
	schema := "x:string"
	buf.WriteByte(byte(len(schema)))
	buf.WriteString(schema)
	buf.WriteByte(0) // EOF marker
	if _, err := ReadCandidates(&buf); err == nil {
		t.Error("wrong schema accepted")
	}
}

func TestReadCandidatesRejectsGarbage(t *testing.T) {
	if _, err := ReadCandidates(bytes.NewReader([]byte("not a columnar file"))); err == nil {
		t.Error("garbage accepted")
	}
}
