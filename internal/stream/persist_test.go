package stream

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestPersistRestoreRoundTrip(t *testing.T) {
	bus := NewBus()
	src := bus.Topic("nrd")
	base := time.Date(2023, 11, 1, 12, 30, 45, 123456789, time.UTC)
	for i := 0; i < 100; i++ {
		src.Publish(base.Add(time.Duration(i)*time.Second), fmt.Sprintf("d%d.com", i), []byte{byte(i), byte(i >> 1)})
	}
	src.Commit("pipeline", 42)
	src.Commit("feed", 100)

	var buf bytes.Buffer
	if err := src.Persist(&buf); err != nil {
		t.Fatal(err)
	}

	dst := NewBus().Topic("nrd")
	if err := dst.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 100 {
		t.Fatalf("restored %d messages", dst.Len())
	}
	if dst.Committed("pipeline") != 42 || dst.Committed("feed") != 100 {
		t.Errorf("offsets: %d, %d", dst.Committed("pipeline"), dst.Committed("feed"))
	}
	msgs := dst.Poll("fresh", 3)
	if msgs[0].Key != "d0.com" || !msgs[0].Time.Equal(base) || msgs[0].Offset != 0 {
		t.Errorf("first message: %+v", msgs[0])
	}
	// The pipeline group resumes exactly where it left off.
	resumed := dst.Poll("pipeline", 1)
	if resumed[0].Offset != 42 {
		t.Errorf("pipeline resumes at %d", resumed[0].Offset)
	}
}

func TestRestoreRefusesNonEmptyTopic(t *testing.T) {
	src := NewBus().Topic("x")
	src.Publish(now, "k", nil)
	var buf bytes.Buffer
	src.Persist(&buf)

	dst := NewBus().Topic("x")
	dst.Publish(now, "existing", nil)
	if err := dst.Restore(&buf); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("want ErrBadSnapshot, got %v", err)
	}
}

func TestRestoreRejectsTruncation(t *testing.T) {
	src := NewBus().Topic("x")
	for i := 0; i < 50; i++ {
		src.Publish(now, "key-with-some-length", []byte("value payload")) // nontrivial body
	}
	var buf bytes.Buffer
	src.Persist(&buf)
	full := buf.Bytes()
	for _, cut := range []int{0, 3, len(full) / 2, len(full) - 1} {
		dst := NewBus().Topic("x")
		if err := dst.Restore(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("cut at %d accepted", cut)
		}
	}
}

func TestPersistEmptyTopic(t *testing.T) {
	src := NewBus().Topic("empty")
	var buf bytes.Buffer
	if err := src.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewBus().Topic("empty")
	if err := dst.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 0 {
		t.Error("empty round trip grew messages")
	}
}

// TestPersistRestoreAcrossPages round-trips a topic of three pages and a
// bit: the restored log reads back message for message, page by page.
func TestPersistRestoreAcrossPages(t *testing.T) {
	src := NewBus().Topic("nrd")
	const n = 3*PageSize + 5
	base := time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)
	for i := range n {
		src.Publish(base.Add(time.Duration(i)*time.Millisecond), fmt.Sprintf("d%d.com", i), []byte{byte(i), byte(i >> 8)})
	}
	src.Commit("g", 2*PageSize+1)
	var buf bytes.Buffer
	if err := src.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewBus().Topic("nrd")
	if err := dst.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	want, got := readAll(t, src, 999), readAll(t, dst, 999)
	for i := range want {
		w, g := want[i], got[i]
		if g.Offset != w.Offset || !g.Time.Equal(w.Time) || g.Key != w.Key || !bytes.Equal(g.Value, w.Value) {
			t.Fatalf("message %d restored as %+v, want %+v", i, g, w)
		}
	}
	if m := dst.Poll("g", 1); len(m) != 1 || m[0].Offset != 2*PageSize+1 {
		t.Fatalf("group resumes at %+v", m)
	}
	// The restored topic keeps publishing where the snapshot ended.
	if off := dst.Publish(base, "next", nil); off != n {
		t.Fatalf("publish after restore got offset %d, want %d", off, n)
	}
}
