package worldsim

import (
	"net/netip"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"darkdns/internal/measure"
)

// drainedWorld runs a tiny world to the end of its timeline and returns it
// with every ground-truth name (most still delegated, the deleted ones
// not), a ghost and a never-generated name — a superset of what a fleet
// would be watching.
func drainedWorld(t *testing.T, seed int64) (*World, []string) {
	t.Helper()
	w := New(tinyConfig(seed))
	w.Run()
	var names []string
	w.Domains.Range(func(d *Domain) { names = append(names, d.Name) })
	sort.Strings(names)
	if len(w.Ghosts) > 0 {
		names = append(names, w.Ghosts[0].Name)
	}
	return w, append(names, "never-generated.com")
}

// resolver is the optional method through which the world's probe
// backend issues measure handles.
type resolver interface {
	Resolve(domain string) measure.Handle
}

// sameSlice reports whether a and b are the same shared answer: equal
// length and, when non-empty, one backing array.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// resolveAll issues one handle per name, as a fleet's Watch does.
func resolveAll(b measure.Backend, names []string) []measure.Handle {
	hs := make([]measure.Handle, len(names))
	for i, n := range names {
		hs[i] = b.(resolver).Resolve(n)
	}
	return hs
}

// TestProbeAnswersAllocateNothing: once every name has been probed once
// (a record's first mail probe builds its MX/TXT answers), the five
// lookups of a probe allocate nothing for any name, and neither does a
// probe through a handle resolved for it.
func TestProbeAnswersAllocateNothing(t *testing.T) {
	w, names := drainedWorld(t, 5)
	b := w.ProbeBackend()
	mb := b.(measure.MailBackend)
	probeAll := func() (inZone, v4, mx, txt int) {
		for _, n := range names {
			if _, ok := b.AuthoritativeNS(n); ok {
				inZone++
			}
			v4 += len(b.LookupA(n))
			b.LookupAAAA(n)
			mx += len(mb.LookupMX(n))
			txt += len(mb.LookupTXT(n))
		}
		return
	}
	inZone, v4, mx, txt := probeAll()
	if inZone == 0 || inZone == len(names) || v4 == 0 || mx == 0 || txt == 0 {
		t.Fatalf("degenerate world: %d names, %d in zone, %d A, %d MX, %d TXT answers", len(names), inZone, v4, mx, txt)
	}
	if allocs := testing.AllocsPerRun(20, func() { probeAll() }); allocs != 0 {
		t.Errorf("a pass over %d names allocates %v times, want 0", len(names), allocs)
	}

	handles := resolveAll(b, names)
	var hInZone int
	for _, h := range handles {
		if h.Probe(true).InZone {
			hInZone++
		}
	}
	if hInZone != inZone {
		t.Fatalf("handles see %d names in zone, by-name probes %d", hInZone, inZone)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		for _, h := range handles {
			h.Probe(true)
		}
	}); allocs != 0 {
		t.Errorf("a pass over %d handles allocates %v times, want 0", len(handles), allocs)
	}
}

// TestProbeBatchEqualsPerDomainViews: ProbeBatch, the five per-domain
// methods and a handle's Probe are views of one helper, so for every name
// — delegated, deleted, ghost, unknown, upper-case, below a delegation —
// slot i of a batch carries exactly the slices the per-domain calls and
// the name's handle hand out, mail answers only when asked, and the batch
// allocates its result slab and nothing else.
func TestProbeBatchEqualsPerDomainViews(t *testing.T) {
	w, names := drainedWorld(t, 5)
	names = append(names, "WWW."+names[0]+".", "www."+names[1], names[2]+".", "x.nosuchtld")
	b := w.ProbeBackend()
	bb, mb := b.(measure.BatchBackend), b.(measure.MailBackend)
	handles := resolveAll(b, names)
	same := sameSlice[string]
	for _, mail := range []bool{true, false} {
		var inZone, withMail int
		for i, pr := range bb.ProbeBatch(names, mail) {
			n := names[i]
			if h := handles[i].Probe(mail); h.InZone != pr.InZone || !same(h.NS, pr.NS) || !sameSlice(h.V4, pr.V4) ||
				h.V6 != nil || !same(h.MX, pr.MX) || !same(h.TXT, pr.TXT) {
				t.Errorf("mail=%v %q: handle probe %+v, batch slot %+v", mail, n, h, pr)
			}
			ns, ok := b.AuthoritativeNS(n)
			v4 := b.LookupA(n)
			if pr.InZone != ok || !same(pr.NS, ns) || len(pr.V4) != len(v4) || (len(v4) > 0 && &pr.V4[0] != &v4[0]) || pr.V6 != nil {
				t.Errorf("mail=%v %q: batch slot %+v, per-domain NS=%v ok=%v A=%v", mail, n, pr, ns, ok, v4)
			}
			wantMX, wantTXT := mb.LookupMX(n), mb.LookupTXT(n)
			if !mail {
				wantMX, wantTXT = nil, nil
			}
			if !same(pr.MX, wantMX) || !same(pr.TXT, wantTXT) {
				t.Errorf("mail=%v %q: batch MX=%v TXT=%v, per-domain MX=%v TXT=%v", mail, n, pr.MX, pr.TXT, wantMX, wantTXT)
			}
			if !pr.InZone && (pr.NS != nil || pr.V4 != nil || pr.MX != nil || pr.TXT != nil) {
				t.Errorf("%q is out of zone but its slot carries answers: %+v", n, pr)
			}
			if pr.InZone {
				inZone++
			}
			if pr.MX != nil || pr.TXT != nil {
				withMail++
			}
		}
		if inZone == 0 || inZone == len(names) || (withMail > 0) != mail {
			t.Fatalf("mail=%v: degenerate batch: %d names, %d in zone, %d with mail answers", mail, len(names), inZone, withMail)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { bb.ProbeBatch(names[:256], true) }); allocs != 1 {
		t.Errorf("ProbeBatch over 256 names allocates %v times, want 1 (the result slab)", allocs)
	}
}

// TestMailAnswers pins what the lazily built answers say, that they
// follow the zone, and that records on one web host share one SPF answer.
func TestMailAnswers(t *testing.T) {
	w, _ := drainedWorld(t, 5)
	mb := w.ProbeBackend().(measure.MailBackend)
	spfByHost := map[string][]string{}
	var live, gone int
	w.Domains.Range(func(d *Domain) {
		mx, txt := mb.LookupMX(d.Name), mb.LookupTXT(d.Name)
		if !w.Registries[d.TLD].InZone(d.Name) {
			gone++
			if mx != nil || txt != nil {
				t.Errorf("%s is out of its zone but answers MX=%v TXT=%v", d.Name, mx, txt)
			}
			return
		}
		live++
		wantMX := []string{"mx1." + d.Name, "mx2." + d.Name}
		if !d.HasMX {
			wantMX = nil
		}
		if !reflect.DeepEqual(mx, wantMX) {
			t.Errorf("%s MX = %v, want %v", d.Name, mx, wantMX)
		}
		if !d.HasSPF {
			if txt != nil {
				t.Errorf("%s publishes no SPF but answers %v", d.Name, txt)
			}
			return
		}
		if want := "v=spf1 include:_spf." + d.WebHostSPFDomain() + " -all"; len(txt) != 1 || txt[0] != want {
			t.Errorf("%s TXT = %v, want [%s]", d.Name, txt, want)
		}
		if prev, ok := spfByHost[d.WebHost]; ok && &prev[0] != &txt[0] {
			t.Errorf("%s: second SPF answer built for web host %q", d.Name, d.WebHost)
		}
		spfByHost[d.WebHost] = txt
	})
	if live == 0 || gone == 0 || len(spfByHost) == 0 {
		t.Fatalf("degenerate world: %d live, %d gone, %d SPF hosts", live, gone, len(spfByHost))
	}
}

// TestFirstMailProbeAllocations: a record's first mail probe builds its
// MX answer with no allocation of its own — both names are substrings of
// the store's MX text chunk, in a pair of slots from its slab — so the
// first probes of every record cost a few chunks, the growth of the
// answer cache and each web host's SPF answer: at most 0.1 allocations a
// record (0.043 over this world's 1 985 records). Its answers still read
// mx1.<name>, mx2.<name> and its web host's SPF policy. One string per
// answer cost one allocation a record, and a pair of its own three (each
// name and the slice).
func TestFirstMailProbeAllocations(t *testing.T) {
	w, names := drainedWorld(t, 5)
	mb := w.ProbeBackend().(measure.MailBackend)
	var fresh []*Domain
	for _, n := range names {
		if d := w.Domains.Get(n); d != nil && d.HasMX && w.Registries[d.TLD].InZone(n) {
			fresh = append(fresh, d)
		}
	}
	if len(fresh) < 512 {
		t.Fatalf("degenerate world: %d delegated records with MX, want at least 512", len(fresh))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, d := range fresh {
		mb.LookupMX(d.Name)
	}
	runtime.ReadMemStats(&after)
	perRecord := float64(after.Mallocs-before.Mallocs) / float64(len(fresh))
	t.Logf("%d first mail probes: %v allocations a record", len(fresh), perRecord)
	if perRecord > 0.1 {
		t.Errorf("a record's first mail probe allocates %v times, want at most 0.1", perRecord)
	}
	for _, d := range fresh {
		if mx, want := mb.LookupMX(d.Name), []string{"mx1." + d.Name, "mx2." + d.Name}; !reflect.DeepEqual(mx, want) {
			t.Errorf("%s MX = %q, want %q", d.Name, mx, want)
		}
		var want []string
		if d.HasSPF {
			want = []string{"v=spf1 include:_spf." + d.WebHostSPFDomain() + " -all"}
		}
		if txt := mb.LookupTXT(d.Name); !reflect.DeepEqual(txt, want) {
			t.Errorf("%s TXT = %q, want %q", d.Name, txt, want)
		}
	}
}

// TestObservationsSurviveRegistryChanges is the sharing contract end to
// end — registry answers flow uncopied through the backend into
// observations and fleet state, so nothing the registry does later may
// show through what was already delivered.
func TestObservationsSurviveRegistryChanges(t *testing.T) {
	w := New(tinyConfig(9))
	defer w.Stop()
	reg := w.Registries["com"]
	const name = "sharing-contract.com"
	oldWeb, newWeb := netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.99")
	if _, err := reg.Register(name, "A", []string{"ns1.old.net", "ns2.old.net"}, oldWeb); err != nil {
		t.Fatal(err)
	}
	w.Clock.Advance(2 * time.Minute) // com rebuilds every 60 s

	f := measure.NewFleet(measure.DefaultConfig(), w.Clock, w.ProbeBackend())
	var got []measure.Observation
	f.OnObservation(func(o measure.Observation) { got = append(got, o) })
	f.Watch(name)
	w.Clock.Advance(20 * time.Minute)
	if len(got) != 3 || !got[0].InZone || len(got[0].V4) != 1 {
		t.Fatalf("baseline observations: %+v", got)
	}
	early := got[0]
	wantNS, wantV4 := []string{"ns1.old.net", "ns2.old.net"}, []netip.Addr{oldWeb}

	if err := reg.UpdateNS(name, []string{"ns2.new.net", "ns1.new.net"}); err != nil {
		t.Fatal(err)
	}
	w.Clock.Advance(20 * time.Minute)
	if err := reg.Delete(name); err != nil {
		t.Fatal(err)
	}
	w.Clock.Advance(20 * time.Minute)
	if _, err := reg.Register(name, "B", []string{"ns1.third.net"}, newWeb); err != nil {
		t.Fatal(err)
	}
	w.Clock.Advance(20 * time.Minute)

	last := got[len(got)-1]
	if !reflect.DeepEqual(last.NS, []string{"ns1.third.net"}) || !reflect.DeepEqual(last.V4, []netip.Addr{newWeb}) {
		t.Fatalf("fleet never saw the re-registration: %+v", last)
	}
	if !reflect.DeepEqual(early.NS, wantNS) || !reflect.DeepEqual(early.V4, wantV4) {
		t.Errorf("delivered observation changed: NS=%v V4=%v", early.NS, early.V4)
	}
	st, _ := f.State(name)
	if !reflect.DeepEqual(st.FirstNS, wantNS) || !reflect.DeepEqual(st.FirstV4, wantV4) {
		t.Errorf("first-seen state changed: FirstNS=%v FirstV4=%v", st.FirstNS, st.FirstV4)
	}
	if !st.NSChanged || st.DeadAt.IsZero() {
		t.Errorf("state missed the change or the deletion: %+v", st)
	}
}

// TestMailAnswersConcurrentFirstProbe races every name's first mail probe
// across goroutines, the way a fleet round's workers hit a fresh world,
// half of them resolving handles (which builds the answers too) and half
// probing by name. Whoever wins a record's build, all callers must end up
// sharing one answer. Run under -race.
func TestMailAnswersConcurrentFirstProbe(t *testing.T) {
	w, names := drainedWorld(t, 7)
	b := w.ProbeBackend()
	mb := b.(measure.MailBackend)
	const workers = 8
	first := make([][]*string, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := make([]*string, len(names))
			for i, n := range names {
				var mx []string
				if g%2 == 0 {
					mx = b.(resolver).Resolve(n).Probe(true).MX
				} else {
					mb.LookupTXT(n)
					mx = mb.LookupMX(n)
				}
				if len(mx) > 0 {
					seen[i] = &mx[0]
				}
			}
			first[g] = seen
		}(g)
	}
	wg.Wait()
	for g := 1; g < workers; g++ {
		for i := range names {
			if first[g][i] != first[0][i] {
				t.Fatalf("%s: worker %d was handed a different MX slice than worker 0", names[i], g)
			}
		}
	}
}
