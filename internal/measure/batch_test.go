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
// ProbeBatch itself, whether rounds are cut by the fleet (ProbeWorkers=0),
// sent as one batch (1) or as eight slices (8), and whether the clock is
// advanced by a duration or run to an instant. Every width goes through
// ProbeBatch.
func TestBatchedRoundsDeterministicAcrossProbeWidths(t *testing.T) {
	type runMode struct {
		name    string
		batch   bool
		workers int
		drain   func(*simclock.Sim)
	}
	advance := func(s *simclock.Sim) { s.Advance(49 * time.Hour) }
	modes := []runMode{
		{"plain-w0", false, 0, advance},
		{"plain-w1", false, 1, advance},
		{"plain-w8", false, 8, advance},
		{"batch-w0", true, 0, advance},
		{"batch-w1", true, 1, advance},
		{"batch-w8", true, 8, advance},
		{"batch-w8-rununtil", true, 8, func(s *simclock.Sim) { s.RunUntil(t0.Add(49 * time.Hour)) }},
	}
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
		cfg.ProbeWorkers = m.workers
		f := NewFleet(cfg, clk, backend)
		var log []string
		f.OnObservation(func(o Observation) {
			log = append(log, fmt.Sprintf("%s|%s|%d|%v|%v|%v", o.At.Format(time.RFC3339), o.Domain, o.Worker, o.InZone, o.NS, o.V4))
		})
		for i := 0; i < 40; i++ {
			d := domainN(i)
			fb.set(d, []string{"ns1.a.net"}, netip.MustParseAddr("192.0.2.1"))
			f.Watch(d)
		}
		clk.Advance(2 * time.Hour)
		for i := 0; i < 40; i += 3 {
			fb.set(domainN(i), nil) // takedown wave
		}
		m.drain(clk)
		logs[m.name] = log
		if m.batch && bb.batches.Load() == 0 {
			t.Errorf("%s: the backend's own ProbeBatch never ran", m.name)
		}
		if m.workers == 8 && m.batch && bb.maxBatch.Load() != 5 {
			t.Errorf("%s: widest batch %d, want 5 (40 domains over 8 slices)", m.name, bb.maxBatch.Load())
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
// wrapper, the way a timing decorator hides it — at every probe and apply
// width. Each watch resolves once, and every probe reads its handle.
func TestHandleReadsEqualNameReads(t *testing.T) {
	domains := nDomains(40)
	for _, pw := range []int{0, 1, 8} {
		for _, aw := range []int{0, 1, 8} {
			run := func(hideResolve bool) ([]string, FleetReport, *handleBackend) {
				hb := &handleBackend{fakeBackend: newFakeBackend()}
				var backend Backend = hb
				if hideResolve {
					backend = struct{ Backend }{hb}
				}
				cfg := DefaultConfig()
				cfg.ProbeWorkers, cfg.ApplyWorkers = pw, aw
				clk := simclock.NewSim(t0)
				log, rep := applyScript(NewFleet(cfg, clk, backend), hb.fakeBackend, clk, domains)
				return log, rep, hb
			}
			want, wantRep, byName := run(true)
			got, gotRep, byHandle := run(false)
			if len(want) == 0 || !reflect.DeepEqual(want, got) {
				t.Errorf("probe=%d apply=%d: handle reads deliver %d observations, name reads %d, streams differ",
					pw, aw, len(got), len(want))
			}
			if !reflect.DeepEqual(wantRep, gotRep) {
				t.Errorf("probe=%d apply=%d: report %+v by handle, %+v by name", pw, aw, gotRep, wantRep)
			}
			if byName.resolves.Load() != 0 || byName.probes.Load() != 0 {
				t.Errorf("probe=%d apply=%d: the wrapper leaked Resolve (%d resolves)", pw, aw, byName.resolves.Load())
			}
			if byHandle.resolves.Load() != int64(len(domains)) || byHandle.probes.Load() != gotRep.Probes {
				t.Errorf("probe=%d apply=%d: %d resolves and %d handle probes for %d watches and %d probes",
					pw, aw, byHandle.resolves.Load(), byHandle.probes.Load(), len(domains), gotRep.Probes)
			}
		}
	}
}

// TestBatchSlicesPartitionRound: a 40-domain round at width 8 must
// arrive as 8 batches of 5 — contiguous admission-order slices, not one
// call per domain.
func TestBatchSlicesPartitionRound(t *testing.T) {
	b := &fakeBatchBackend{fakeBackend: newFakeBackend()}
	clk := simclock.NewSim(t0)
	cfg := DefaultConfig()
	cfg.ProbeWorkers = 8
	f := NewFleet(cfg, clk, b)
	for i := 0; i < 40; i++ {
		d := domainN(i)
		b.set(d, []string{"ns1.a.net"})
		f.Watch(d)
	}
	base := b.batches.Load() // 40 single-target admission probes
	clk.Advance(cfg.Interval + time.Second)
	if f.Report().Rounds == 0 {
		t.Fatal("no rounds ran")
	}
	if got := b.batches.Load() - base; got != 8 {
		t.Errorf("full round made %d ProbeBatch calls, want 8 slices", got)
	}
	if mx := b.maxBatch.Load(); mx != 5 {
		t.Errorf("max batch = %d, want 5 (40 domains over 8 slices)", mx)
	}
}

// TestAutoSliceCountFollowsRoundSize: with ProbeWorkers == 0 the fleet
// sizes the cut to the round — one slice per minSlice targets, never
// more than Workers, never a slice shorter than minSlice unless the whole
// round is — so a round of N targets makes at most ⌈N / minSlice⌉
// ProbeBatch calls rather than one per pool worker.
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
	f.cfg.ProbeWorkers = 8
	for _, c := range []struct{ n, want int }{{1, 1}, {5, 5}, {8, 8}, {40, 8}, {100 * minSlice, 8}} {
		if got := f.sliceCount(c.n); got != c.want {
			t.Errorf("sliceCount(%d) = %d at ProbeWorkers=8, want %d", c.n, got, c.want)
		}
	}

	// End to end: a width-0 round of 3·minSlice+7 watches is three calls.
	const n = 3*minSlice + 7
	b := &fakeBatchBackend{fakeBackend: newFakeBackend()}
	clk := simclock.NewSim(t0)
	fl := NewFleet(DefaultConfig(), clk, b)
	for i := 0; i < n; i++ {
		d := fmt.Sprintf("s%04d.com", i) // domainN wraps at 676 names
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
		for _, pw := range []int{0, 2} {
			clk := simclock.NewSim(t0)
			cfg := DefaultConfig()
			cfg.ProbeMail, cfg.ProbeWorkers = true, pw
			f := NewFleet(cfg, clk, backend)
			f.Watch("live.com")
			f.Watch("gone.com")
			clk.Advance(time.Hour)
			live, _ := f.State("live.com")
			gone, _ := f.State("gone.com")
			if !live.HasMX || !live.HasSPF {
				t.Errorf("%s/w%d: delegated name's mail records not seen: %+v", name, pw, live)
			}
			if gone.Probes != live.Probes || gone.EverInZone || gone.HasMX || gone.HasSPF {
				t.Errorf("%s/w%d: never-delegated name picked up mail records: %+v", name, pw, gone)
			}
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
