package measure

import (
	"fmt"
	"net/netip"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"darkdns/internal/simclock"
	"darkdns/internal/workpool"
)

// fakeBatchBackend layers BatchBackend over the scripted fakeBackend and
// counts batch shapes so tests can prove which slices the fleet cut.
type fakeBatchBackend struct {
	*fakeBackend
	batches  atomic.Int64
	maxBatch atomic.Int64
}

func (b *fakeBatchBackend) ProbeBatch(domains []string, mail bool) []ProbeResult {
	b.batches.Add(1)
	workpool.AtomicMax(&b.maxBatch, int64(len(domains)))
	out := make([]ProbeResult, len(domains))
	for i, d := range domains {
		pr := &out[i]
		pr.NS, pr.InZone = b.AuthoritativeNS(d)
		if pr.InZone {
			pr.V4 = b.LookupA(d)
			pr.V6 = b.LookupAAAA(d)
		}
	}
	return out
}

// TestBatchedRoundsDeterministicAcrossProbeWidths: the probe engine's
// half of the campaign determinism contract — a fixed schedule delivers
// byte-identical observation streams whether the backend is a plain
// Backend behind the fleet's per-domain adapter or the same fake exposing
// ProbeBatch itself, whether the fleet cuts each round into one slice
// (Workers 1) or four (Workers 4), and whether the clock is advanced by a
// duration or run to an instant. Worker numbers follow Workers by design
// (TestWorkersRoundRobin), so the log leaves them out.
func TestBatchedRoundsDeterministicAcrossProbeWidths(t *testing.T) {
	type runMode struct {
		name    string
		batch   bool
		workers int
		drain   func(*simclock.Sim)
	}
	end := t0.Add(3 * time.Hour)
	advance := func(s *simclock.Sim) { s.Advance(end.Sub(s.Now())) }
	modes := []runMode{
		{"plain-one-slice", false, 1, advance},
		{"plain-four-slices", false, fourSlices, advance},
		{"batch-one-slice", true, 1, advance},
		{"batch-four-slices", true, fourSlices, advance},
		{"batch-four-slices-rununtil", true, fourSlices, func(s *simclock.Sim) { s.RunUntil(end) }},
	}
	domains := nDomains(fourSliceWatches)
	logs := make(map[string][]string)
	for _, m := range modes {
		fb := newFakeBackend()
		bb := &fakeBatchBackend{fakeBackend: fb}
		var backend Backend = fb
		if m.batch {
			backend = bb
		}
		clk := simclock.NewSim(t0)
		cfg := DefaultConfig()
		cfg.Workers = m.workers
		cfg.Window = 2 * time.Hour
		f := NewFleet(cfg, clk, backend)
		var log []string
		f.OnObservation(func(o Observation) {
			log = append(log, fmt.Sprintf("%s|%s|%v|%v|%v", o.At.Format(time.RFC3339), o.Domain, o.InZone, o.NS, o.V4))
		})
		for _, d := range domains {
			fb.set(d, []string{"ns1.a.net"}, netip.MustParseAddr("192.0.2.1"))
			f.Watch(d)
		}
		clk.Advance(time.Hour)
		for i := 0; i < len(domains); i += 3 {
			fb.set(domains[i], nil) // takedown wave
		}
		m.drain(clk)
		logs[m.name] = log
		if m.batch && bb.batches.Load() == 0 {
			t.Errorf("%s: the backend's own ProbeBatch never ran", m.name)
		}
		if want := int64(len(domains) / m.workers); m.batch && bb.maxBatch.Load() != want {
			t.Errorf("%s: widest batch %d, want %d (%d domains over %d slices)", m.name, bb.maxBatch.Load(), want, len(domains), m.workers)
		}
	}
	want := logs[modes[0].name]
	if len(want) == 0 {
		t.Fatal("no observations")
	}
	for _, m := range modes[1:] {
		if !reflect.DeepEqual(want, logs[m.name]) {
			t.Errorf("%s observation stream diverges from %s (%d vs %d)",
				m.name, modes[0].name, len(logs[m.name]), len(want))
		}
	}
}

// handleBackend is the scripted fakeBackend issuing handles. A handle
// reads the fake's current script for its name, so it follows every set
// made after Resolve, as a backend's handle must.
type handleBackend struct {
	*fakeBackend
	resolves, probes atomic.Int64
}

func (b *handleBackend) Resolve(domain string) Handle {
	b.resolves.Add(1)
	return fakeHandle{b, domain}
}

type fakeHandle struct {
	b      *handleBackend
	domain string
}

func (h fakeHandle) Probe(bool) ProbeResult {
	h.b.probes.Add(1)
	var pr ProbeResult
	pr.NS, pr.InZone = h.b.AuthoritativeNS(h.domain)
	if pr.InZone {
		pr.V4 = h.b.LookupA(h.domain)
	}
	return pr
}

// TestHandleReadsEqualNameReads: reading every probe through the handles
// a backend issued at Watch delivers exactly the observation stream and
// report of reading the same backend by name — its Resolve hidden by a
// wrapper, the way a timing decorator hides it — whether the fleet cuts
// each round into one slice or four. Each watch resolves once, and every
// probe reads its handle.
func TestHandleReadsEqualNameReads(t *testing.T) {
	for _, n := range []int{40, fourSliceWatches} {
		domains := nDomains(n)
		run := func(hideResolve bool) ([]string, FleetReport, *handleBackend) {
			hb := &handleBackend{fakeBackend: newFakeBackend()}
			var backend Backend = hb
			if hideResolve {
				backend = struct{ Backend }{hb}
			}
			clk := simclock.NewSim(t0)
			log, rep := applyScript(NewFleet(fourSliceConfig(false), clk, backend), hb.fakeBackend, clk, domains)
			return log, rep, hb
		}
		want, wantRep, byName := run(true)
		got, gotRep, byHandle := run(false)
		if len(want) == 0 || !reflect.DeepEqual(want, got) {
			t.Errorf("%d watches: handle reads deliver %d observations, name reads %d, streams differ",
				n, len(got), len(want))
		}
		if !reflect.DeepEqual(wantRep, gotRep) {
			t.Errorf("%d watches: report %+v by handle, %+v by name", n, gotRep, wantRep)
		}
		if byName.resolves.Load() != 0 || byName.probes.Load() != 0 {
			t.Errorf("%d watches: the wrapper leaked Resolve (%d resolves)", n, byName.resolves.Load())
		}
		if byHandle.resolves.Load() != int64(len(domains)) || byHandle.probes.Load() != gotRep.Probes {
			t.Errorf("%d watches: %d resolves and %d handle probes for %d watches and %d probes",
				n, byHandle.resolves.Load(), byHandle.probes.Load(), len(domains), gotRep.Probes)
		}
	}
}

// TestBatchSlicesPartitionRound: the cut stops at Workers — a round of
// 8·minSlice watches at Workers 4 must arrive as 4 contiguous batches of
// 2·minSlice, not 8 of minSlice and not one call per domain.
func TestBatchSlicesPartitionRound(t *testing.T) {
	b := &fakeBatchBackend{fakeBackend: newFakeBackend()}
	clk := simclock.NewSim(t0)
	cfg := DefaultConfig()
	cfg.Workers = 4
	f := NewFleet(cfg, clk, b)
	for _, d := range nDomains(8 * minSlice) {
		b.set(d, []string{"ns1.a.net"})
		f.Watch(d)
	}
	base := b.batches.Load() // single-target admission probes
	clk.Advance(cfg.Interval + time.Second)
	if f.Report().Rounds == 0 {
		t.Fatal("no rounds ran")
	}
	if got := b.batches.Load() - base; got != 4 {
		t.Errorf("full round made %d ProbeBatch calls, want 4 slices", got)
	}
	if mx := b.maxBatch.Load(); mx != 2*minSlice {
		t.Errorf("max batch = %d, want %d (8·minSlice domains over 4 slices)", mx, 2*minSlice)
	}
}

// TestAutoSliceCountFollowsRoundSize: the fleet sizes the cut to the
// round — one slice per minSlice targets, never more than Workers, never
// a slice shorter than minSlice unless the whole round is — so a round of
// N targets makes at most ⌈N / minSlice⌉ ProbeBatch calls rather than one
// per pool worker.
func TestAutoSliceCountFollowsRoundSize(t *testing.T) {
	f := NewFleet(Config{Workers: 4}, simclock.NewSim(t0), newFakeBackend())
	for _, c := range []struct{ n, want int }{
		{1, 1}, {40, 1}, {minSlice - 1, 1}, {minSlice, 1}, {2*minSlice - 1, 1},
		{2 * minSlice, 2}, {3*minSlice + 7, 3}, {4 * minSlice, 4}, {100 * minSlice, 4},
	} {
		if got := f.sliceCount(c.n); got != c.want {
			t.Errorf("sliceCount(%d) = %d at Workers=4, want %d", c.n, got, c.want)
		}
		if ceil := (c.n + minSlice - 1) / minSlice; c.want > ceil {
			t.Fatalf("table expects %d slices for %d targets, above ⌈n/minSlice⌉ = %d", c.want, c.n, ceil)
		}
	}

	// End to end: a round of 3·minSlice+7 watches is three calls.
	const n = 3*minSlice + 7
	b := &fakeBatchBackend{fakeBackend: newFakeBackend()}
	clk := simclock.NewSim(t0)
	fl := NewFleet(DefaultConfig(), clk, b)
	for _, d := range nDomains(n) {
		b.set(d, []string{"ns1.a.net"})
		fl.Watch(d)
	}
	base := b.batches.Load()
	if base != n || b.maxBatch.Load() != 1 {
		t.Fatalf("admission probes: %d calls, widest %d; want %d calls of 1", base, b.maxBatch.Load(), n)
	}
	clk.Advance(fl.cfg.Interval + time.Second)
	if got := b.batches.Load() - base; got != 3 {
		t.Errorf("round of %d made %d ProbeBatch calls, want 3", n, got)
	}
	// Three slices covering n with none longer than ⌈n/3⌉ is an even cut,
	// which leaves none shorter than minSlice.
	if hi := b.maxBatch.Load(); hi != (n+2)/3 {
		t.Errorf("longest slice %d, want %d (an even cut of %d in three)", hi, (n+2)/3, n)
	}
	if rep := fl.Report(); rep.Probes != 2*n || rep.MaxRound != n {
		t.Errorf("probes=%d maxRound=%d, want %d and %d", rep.Probes, rep.MaxRound, 2*n, n)
	}
}

// mailEverywhere is a backend that breaks the rule the fleet relies on:
// it answers MX and TXT for every name, delegated or not.
type mailEverywhere struct {
	*fakeBackend
	mailCalls atomic.Int64
}

func (b *mailEverywhere) LookupMX(d string) []string {
	b.mailCalls.Add(1)
	return []string{"mx." + d}
}

func (b *mailEverywhere) LookupTXT(d string) []string {
	b.mailCalls.Add(1)
	return []string{"v=spf1 -all"}
}

// mailEverywhereBatch is the same offender speaking ProbeBatch.
type mailEverywhereBatch struct{ *mailEverywhere }

func (b mailEverywhereBatch) ProbeBatch(domains []string, mail bool) []ProbeResult {
	out := perDomain{b.fakeBackend, nil}.ProbeBatch(domains, false)
	for i, d := range domains {
		out[i].MX, out[i].TXT = b.LookupMX(d), b.LookupTXT(d)
	}
	return out
}

// TestOutOfZoneSlotCarriesNoMail: mail records are asked only of names
// the TLD still delegates. Through the adapter an out-of-zone name is
// never even queried for MX/TXT; through a backend's own ProbeBatch that
// fills the slot anyway, the fleet drops it. Either way a name that was
// never in the zone ends its watch with neither HasMX nor HasSPF.
func TestOutOfZoneSlotCarriesNoMail(t *testing.T) {
	me := &mailEverywhere{fakeBackend: newFakeBackend()}
	me.set("live.com", []string{"ns1.a.net"})
	prs := perDomain{me, me}.ProbeBatch([]string{"live.com", "gone.com"}, true)
	if len(prs[0].MX) != 1 || len(prs[0].TXT) != 1 {
		t.Errorf("delegated slot lost its mail answers: %+v", prs[0])
	}
	if prs[1].InZone || prs[1].MX != nil || prs[1].TXT != nil {
		t.Errorf("out-of-zone slot carries answers through the adapter: %+v", prs[1])
	}
	if got := me.mailCalls.Load(); got != 2 {
		t.Errorf("adapter made %d mail lookups, want 2 (MX+TXT of the one delegated name)", got)
	}
	if prs = (perDomain{me, me}).ProbeBatch([]string{"live.com"}, false); prs[0].MX != nil || prs[0].TXT != nil {
		t.Errorf("mail=false batch carries mail answers: %+v", prs[0])
	}

	for name, backend := range map[string]Backend{"adapter": me, "own-batch": mailEverywhereBatch{me}} {
		clk := simclock.NewSim(t0)
		cfg := DefaultConfig()
		cfg.ProbeMail = true
		f := NewFleet(cfg, clk, backend)
		f.Watch("live.com")
		f.Watch("gone.com")
		clk.Advance(time.Hour)
		live, _ := f.State("live.com")
		gone, _ := f.State("gone.com")
		if !live.HasMX || !live.HasSPF {
			t.Errorf("%s: delegated name's mail records not seen: %+v", name, live)
		}
		if gone.Probes != live.Probes || gone.EverInZone || gone.HasMX || gone.HasSPF {
			t.Errorf("%s: never-delegated name picked up mail records: %+v", name, gone)
		}
	}
}

// TestRevalidateCadenceOverridesInterval: the Afek & Litmanovich knob —
// a RevalidatePolicy cadence replaces the default 10-minute interval, so
// an hour books 1 immediate + 12 five-minute probes instead of 7.
func TestRevalidateCadenceOverridesInterval(t *testing.T) {
	b := newFakeBackend()
	b.set("x.com", []string{"ns1.a.net"})
	clk := simclock.NewSim(t0)
	cfg := DefaultConfig()
	cfg.Revalidate = RevalidatePolicy{Cadence: 5 * time.Minute}
	f := NewFleet(cfg, clk, b)
	f.Watch("x.com")
	clk.Advance(time.Hour)
	st, ok := f.State("x.com")
	if !ok || st.Probes != 13 {
		t.Errorf("probes = %d under 5 m cadence, want 13", st.Probes)
	}
}
