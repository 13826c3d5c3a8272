package dnsmsg

import (
	"bytes"
	"slices"
	"testing"
)

func TestSetEDNS0RoundTrip(t *testing.T) {
	m := NewQuery(1, "example.com", TypeNS)
	if _, ok := m.EDNSSize(); ok {
		t.Fatal("fresh query should carry no OPT")
	}
	m.SetEDNS0(DefaultEDNSSize)
	size, ok := m.EDNSSize()
	if !ok || size != DefaultEDNSSize {
		t.Fatalf("EDNSSize = %d, %v", size, ok)
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	size, ok = got.EDNSSize()
	if !ok || size != DefaultEDNSSize {
		t.Fatalf("after wire round trip: %d, %v", size, ok)
	}
}

func TestSetEDNS0UpdatesInPlace(t *testing.T) {
	m := NewQuery(1, "example.com", TypeA)
	m.SetEDNS0(1232)
	m.SetEDNS0(4096)
	if len(m.Additional) != 1 {
		t.Fatalf("OPT duplicated: %d additional records", len(m.Additional))
	}
	if size, _ := m.EDNSSize(); size != 4096 {
		t.Errorf("size = %d", size)
	}
}

func TestEDNSSizeClampsTinyAdvertisements(t *testing.T) {
	m := NewQuery(1, "example.com", TypeA)
	m.SetEDNS0(100)
	if size, _ := m.EDNSSize(); size != 512 {
		t.Errorf("clamp: %d, want 512", size)
	}
}

// TestAppendOPTMatchesPackedOPT: an OPT appended to a packed message that
// follows other bytes in the buffer reads as one appended to the
// additional section before packing.
func TestAppendOPTMatchesPackedOPT(t *testing.T) {
	for name, m := range codecTable() {
		prefix := []byte("prefix")
		wire, err := m.AppendPack(prefix)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendOPT(wire, len(prefix), 1232)
		withOPT := *m
		withOPT.Additional = append(slices.Clone(m.Additional), Record{Type: TypeOPT, Class: 1232})
		want, err := withOPT.AppendPack(prefix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %x\nwant %x", name, got, want)
		}
	}
}
