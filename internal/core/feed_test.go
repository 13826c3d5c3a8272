package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"darkdns/internal/certstream"
	"darkdns/internal/czds"
	"darkdns/internal/psl"
	"darkdns/internal/simclock"
	"darkdns/internal/stream"
)

// referenceFeedJSON is the feed message as fmt built it before feedJSON
// appended it in place: the oracle FuzzFeedJSON holds feedJSON to, byte
// for byte.
func referenceFeedJSON(domain string, seen time.Time, log string) []byte {
	return []byte(fmt.Sprintf(`{"domain":%q,"seen":%q,"log":%q}`,
		domain, seen.UTC().Format(time.RFC3339), log))
}

// feedCases seed FuzzFeedJSON and run as TestFeedJSONMatchesReference:
// quotes, backslashes, control bytes, invalid UTF-8, non-ASCII runes,
// names longer than feedJSON's stack buffer, and instants in other zones
// and outside years 0–9999.
var feedCases = []struct {
	domain, log string
	seen        time.Time
}{
	{"fresh.com", "argon-sim", t0},
	{`quo"te.com`, `back\slash`, t0.Add(time.Nanosecond)},
	{"ctl\x00\x01\x1f\x7f.com", "tab\tnew\nline", t0},
	{"bad\xff\xfeutf8.com", "\xc3(", t0},
	{"ünïcödé.de", "日本語", time.Date(2024, 2, 29, 23, 59, 59, 999, time.FixedZone("X", -7*3600))},
	{string(bytes.Repeat([]byte("a\""), 200)) + ".com", "", time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
	{"", "", time.Date(10000, 12, 31, 0, 0, 0, 0, time.UTC)},
	{"z.com", "l", time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC)},
	{"y.com", "l", time.Unix(1<<40, 0)},
}

func TestFeedJSONMatchesReference(t *testing.T) {
	for _, c := range feedCases {
		got, want := feedJSON(c.domain, c.seen, c.log), referenceFeedJSON(c.domain, c.seen, c.log)
		if !bytes.Equal(got, want) {
			t.Errorf("feedJSON(%q, %v, %q)\n got %s\nwant %s", c.domain, c.seen, c.log, got, want)
		}
		if cap(got) != len(got) {
			t.Errorf("feedJSON(%q): cap %d for %d bytes, want an exact-size payload", c.domain, cap(got), len(got))
		}
	}
}

// FuzzFeedJSON holds feedJSON to the fmt reference for any domain, log
// name and instant, seconds taken across a range that spans years far
// outside 0–9999 in both directions.
func FuzzFeedJSON(f *testing.F) {
	for _, c := range feedCases {
		f.Add(c.domain, c.log, c.seen.Unix(), int64(c.seen.Nanosecond()), 0)
	}
	f.Fuzz(func(t *testing.T, domain, log string, sec, nsec int64, offset int) {
		seen := time.Unix(sec, nsec).In(time.FixedZone("", offset%(24*3600)))
		got, want := feedJSON(domain, seen, log), referenceFeedJSON(domain, seen, log)
		if !bytes.Equal(got, want) {
			t.Fatalf("feedJSON(%q, %v, %q)\n got %s\nwant %s", domain, seen, log, got, want)
		}
	})
}

// TestHandleEventAllocations pins what admitting a fresh name costs with
// a feed and no fleet: the feed payload, and the candidate's share of a
// chunk of store records (each record is also its candidate's RDAP
// timer). Screening, PSL extraction, the name check, the decision draws
// and scheduling the timer allocate nothing; record-chunk, map, feed-log
// and clock-slot growth amortize below one per admission.
func TestHandleEventAllocations(t *testing.T) {
	const runs = 2000
	clk := simclock.NewSim(t0)
	p := New(DefaultConfig(t0, t0.Add(time.Hour)), clk, psl.Default(), czds.New(),
		nullQuerier{}, nil, stream.NewBus(), 1)
	evs := make([]certstream.Event, runs+1) // AllocsPerRun calls once more to warm up
	for i := range evs {
		evs[i] = event(t0, fmt.Sprintf("www.fresh%d.com", i), fmt.Sprintf("fresh%d.com", i))
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		p.HandleEvent(evs[next])
		next++
	})
	if p.Len() != runs+1 {
		t.Fatalf("admitted %d candidates, want %d", p.Len(), runs+1)
	}
	t.Logf("%v allocations per admission", allocs)
	if allocs > 1 {
		t.Errorf("HandleEvent of a fresh name allocates %v times, want ≤ 1", allocs)
	}
	// The timers fire their own records: every candidate gets its outcome.
	for clk.Pending() > 0 {
		clk.Advance(24 * time.Hour)
	}
	for _, c := range p.Candidates() {
		if c.RDAPOutcome == RDAPPending {
			t.Fatalf("%s: RDAP timer never fired", c.Domain)
		}
	}
}

// TestAdmissionAllocations pins an admission without a feed or a fleet
// to its share of a chunk of store records: 2 000 fresh names, each
// screened, admitted and given its RDAP timer, allocate at most 0.05
// times per name, the store map's and clock slots' growth included. A
// duplicate, caught before a record is carved, allocates nothing.
func TestAdmissionAllocations(t *testing.T) {
	const n = 2000
	clk := simclock.NewSim(t0)
	p := New(DefaultConfig(t0, t0.Add(time.Hour)), clk, psl.Default(), czds.New(), nullQuerier{}, nil, nil, 1)
	evs := make([]certstream.Event, 2*n) // AllocsPerRun makes one warm-up pass
	for i := range evs {
		evs[i] = event(t0, fmt.Sprintf("fresh%d.com", i))
	}
	next := evs
	if got := testing.AllocsPerRun(1, func() {
		for _, ev := range next[:n] {
			p.HandleEvent(ev)
		}
		next = next[n:]
	}) / n; got > 0.05 {
		t.Errorf("an admission allocates %v times, want at most 0.05", got)
	}
	if p.Len() != 2*n {
		t.Fatalf("admitted %d candidates, want %d", p.Len(), 2*n)
	}
	// Every run replays the same duplicates. AllocsPerRun divides the
	// process's allocations by the runs as integers, so over 20 runs the
	// runtime's own stray allocations round away, where over one a single
	// stray failed the pin.
	if got := testing.AllocsPerRun(20, func() {
		for _, ev := range evs[:n] {
			p.HandleEvent(ev)
		}
	}); got != 0 {
		t.Errorf("%d duplicate events allocate %v times, want 0", n, got)
	}
	if p.Len() != 2*n {
		t.Errorf("duplicates changed the store to %d candidates", p.Len())
	}
}
