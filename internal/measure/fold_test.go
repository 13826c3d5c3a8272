package measure

import (
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"darkdns/internal/simclock"
)

// notifyBackend is a scripted backend whose handles notify: set replaces
// a name's answer and then calls every callback its handles registered,
// as a registry does inside the mutating clock event.
type notifyBackend struct {
	mu   sync.Mutex
	ans  map[string]scripted
	subs map[string][]func()
}

// scripted is one name's answer as indices into the pools below, so a
// change and its reversal republish equal slices, as a registry does not
// have to.
type scripted struct {
	inZone      bool
	ns, a, mail int
}

var (
	nsPool   = [][]string{{"ns1.a.net", "ns2.a.net"}, {"ns2.a.net", "ns1.a.net"}, {"ns1.b.net"}}
	aPool    = [][]netip.Addr{nil, {netip.MustParseAddr("192.0.2.1")}, {netip.MustParseAddr("192.0.2.2")}}
	mxPool   = [][]string{nil, {"mx.a.net"}}
	txtPool  = [][]string{nil, {"v=spf1 -all"}}
	cadences = []time.Duration{time.Minute, 7 * time.Minute, 10 * time.Minute}
	// windows holds one shorter than the 7- and 10-minute intervals.
	windows = []time.Duration{4 * time.Minute, 30 * time.Minute, 95 * time.Minute, 3 * time.Hour}
)

func newNotifyBackend() *notifyBackend {
	return &notifyBackend{ans: make(map[string]scripted), subs: make(map[string][]func())}
}

func (b *notifyBackend) probe(d string, mail bool) ProbeResult {
	b.mu.Lock()
	s := b.ans[d]
	b.mu.Unlock()
	if !s.inZone {
		return ProbeResult{}
	}
	pr := ProbeResult{InZone: true, NS: nsPool[s.ns], V4: aPool[s.a]}
	if mail {
		pr.MX, pr.TXT = mxPool[s.mail], txtPool[s.mail]
	}
	return pr
}

func (b *notifyBackend) set(d string, s scripted) {
	b.mu.Lock()
	b.ans[d] = s
	fns := b.subs[d]
	b.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

func (b *notifyBackend) AuthoritativeNS(d string) ([]string, bool) {
	pr := b.probe(d, false)
	return pr.NS, pr.InZone
}
func (b *notifyBackend) LookupA(d string) []netip.Addr  { return b.probe(d, false).V4 }
func (b *notifyBackend) LookupAAAA(string) []netip.Addr { return nil }
func (b *notifyBackend) LookupMX(d string) []string     { return b.probe(d, true).MX }
func (b *notifyBackend) LookupTXT(d string) []string    { return b.probe(d, true).TXT }
func (b *notifyBackend) Resolve(d string) Handle        { return notifyHandle{b, d} }

type notifyHandle struct {
	b *notifyBackend
	d string
}

func (h notifyHandle) Probe(mail bool) ProbeResult { return h.b.probe(h.d, mail) }

func (h notifyHandle) Notify(fn func()) {
	h.b.mu.Lock()
	h.b.subs[h.d] = append(h.b.subs[h.d], fn)
	h.b.mu.Unlock()
}

// pollOnly is the same backend with the notifier hidden: its handles
// only Probe, so the fleet reads every watch every round.
type pollOnly struct{ *notifyBackend }

func (p pollOnly) Resolve(d string) Handle { return struct{ Handle }{p.notifyBackend.Resolve(d)} }

// foldScript is one generated campaign. Its bytes decode as a header —
// cadence, window, flags (bit 0 StopWhenDead, bit 1 ProbeMail), the op
// before which an observer registers (≥ 0x80: none) — then three bytes an
// op: kind, domain, and a delay byte whose low six bits are minutes after
// the previous op and whose bit 6 makes the op late: scheduled from its
// own instant, so it fires after a round at that instant instead of
// before it.
type foldScript []byte

const (
	opWatch = iota
	opRegister
	opNSChange
	opAChange
	opDelete
	opFlap // A→B→A at one instant: two notifications, no net change
	opMailChange
	opReRegister // delete then register at one instant
	opKinds
)

const maxFoldOps = 48

func (s foldScript) at(i int) byte {
	if i < len(s) {
		return s[i]
	}
	return 0
}

func (s foldScript) config() Config {
	cfg := DefaultConfig()
	cfg.Interval = cadences[int(s.at(0))%len(cadences)]
	cfg.Window = windows[int(s.at(1))%len(windows)]
	cfg.StopWhenDead = s.at(2)&1 != 0
	cfg.ProbeMail = s.at(2)&2 != 0
	cfg.Workers = 3
	return cfg
}

// run plays the script against a fresh fleet over backend wrap(b), and
// returns what the fleet reports once the clock has drained.
func (s foldScript) run(wrap func(*notifyBackend) Backend) ([]DomainState, FleetReport, []Observation) {
	b := newNotifyBackend()
	clk := simclock.NewSim(t0)
	f := NewFleet(s.config(), clk, wrap(b))
	var obs []Observation
	observeAt := int(s.at(3))
	now := t0
	for k := 0; k < maxFoldOps && 4+3*k+2 < len(s); k++ {
		kind, dom, delay := int(s.at(4+3*k))%opKinds, fmt.Sprintf("d%d.com", s.at(5+3*k)%5), s.at(6+3*k)
		now = now.Add(time.Duration(delay&63) * time.Minute)
		if k == observeAt {
			clk.At(now, func() { f.OnObservation(func(o Observation) { obs = append(obs, o) }) })
		}
		op := func() {
			b.mu.Lock()
			cur := b.ans[dom]
			b.mu.Unlock()
			switch kind {
			case opWatch:
				f.Watch(dom)
			case opRegister:
				b.set(dom, scripted{inZone: true, ns: cur.ns, a: 1, mail: cur.mail})
			case opNSChange:
				b.set(dom, scripted{inZone: cur.inZone, ns: (cur.ns + 1) % len(nsPool), a: cur.a, mail: cur.mail})
			case opAChange:
				b.set(dom, scripted{inZone: cur.inZone, ns: cur.ns, a: (cur.a + 1) % len(aPool), mail: cur.mail})
			case opDelete:
				b.set(dom, scripted{ns: cur.ns, a: cur.a, mail: cur.mail})
			case opFlap:
				b.set(dom, scripted{inZone: cur.inZone, ns: cur.ns, a: (cur.a + 1) % len(aPool), mail: cur.mail})
				b.set(dom, cur)
			case opMailChange:
				b.set(dom, scripted{inZone: cur.inZone, ns: cur.ns, a: cur.a, mail: 1 - cur.mail})
			case opReRegister:
				b.set(dom, scripted{ns: cur.ns, a: cur.a, mail: cur.mail})
				b.set(dom, scripted{inZone: true, ns: (cur.ns + 2) % len(nsPool), a: cur.a, mail: cur.mail})
			}
		}
		if at := now; delay&64 != 0 {
			clk.At(at, func() { clk.At(at, op) })
		} else {
			clk.At(at, op)
		}
	}
	clk.Run()
	return f.States(), f.Report(), obs
}

// FuzzFoldEqualsPoll: a fleet whose backend's handles notify, folding
// every round a watch's answer did not move, reports exactly what the
// same fleet reports polling the same backend with the notifier hidden —
// every exported DomainState field, the whole FleetReport but for Reads,
// and every observation — over random answer timelines, the three
// cadences, windows down to one shorter than the interval, StopWhenDead
// either way and an observer registered mid-campaign. The poll reads
// every probe; the fold never reads more.
func FuzzFoldEqualsPoll(f *testing.F) {
	op := func(kind, dom, minutes byte, late bool) []byte {
		if late {
			minutes |= 64
		}
		return []byte{kind, dom, minutes}
	}
	seed := func(cadence, window, flags, observeAt byte, ops ...[]byte) {
		s := []byte{cadence, window, flags, observeAt}
		for _, o := range ops {
			s = append(s, o...)
		}
		f.Add(s)
	}
	// A watched name's whole life at the 10-minute cadence, watched before
	// it is registered: register, NS change, A change, delete, re-register.
	seed(2, 3, 0, 0x80,
		op(opWatch, 0, 0, false), op(opRegister, 0, 5, false), op(opNSChange, 0, 20, false),
		op(opAChange, 0, 17, false), op(opDelete, 0, 13, false), op(opReRegister, 0, 30, false))
	// Changes on a round's instant, before it and after it in seq order, and
	// an A→B→A flap between two rounds.
	seed(2, 3, 0, 0x80,
		op(opRegister, 1, 0, false), op(opWatch, 1, 0, false), op(opNSChange, 1, 10, false),
		op(opNSChange, 1, 10, true), op(opAChange, 1, 10, true), op(opFlap, 1, 4, false),
		op(opDelete, 1, 6, true))
	// A window shorter than the interval: only the admission probe counts,
	// even when a round runs for a later watch still inside its window.
	seed(2, 0, 0, 0x80, op(opRegister, 2, 0, false), op(opWatch, 2, 1, false), op(opAChange, 2, 3, false),
		op(opWatch, 3, 4, false))
	// StopWhenDead with a death, and an observer from the fourth op on.
	seed(1, 2, 1, 3,
		op(opRegister, 0, 0, false), op(opWatch, 0, 0, false), op(opRegister, 1, 2, false),
		op(opWatch, 1, 0, true), op(opDelete, 0, 21, false), op(opWatch, 2, 7, false),
		op(opRegister, 2, 7, true), op(opDelete, 1, 14, true))
	// The 1-minute cadence with mail probes, re-watches and every kind.
	seed(0, 1, 2, 6,
		op(opWatch, 3, 0, false), op(opRegister, 3, 1, false), op(opMailChange, 3, 2, false),
		op(opWatch, 3, 1, false), op(opWatch, 4, 0, true), op(opRegister, 4, 1, true),
		op(opFlap, 3, 3, false), op(opReRegister, 4, 5, false), op(opNSChange, 3, 9, true),
		op(opDelete, 3, 11, false), op(opMailChange, 4, 2, false))
	// Watches admitted on round instants, around the round, at 7 minutes.
	seed(1, 1, 3, 0x80,
		op(opRegister, 0, 0, false), op(opRegister, 1, 0, false), op(opWatch, 0, 0, false),
		op(opWatch, 1, 7, false), op(opWatch, 2, 7, true), op(opRegister, 2, 0, true),
		op(opDelete, 1, 14, false), op(opRegister, 1, 7, true))

	f.Fuzz(func(t *testing.T, data []byte) {
		s := foldScript(data)
		fold, foldRep, foldObs := s.run(func(b *notifyBackend) Backend { return b })
		poll, pollRep, pollObs := s.run(func(b *notifyBackend) Backend { return pollOnly{b} })
		if len(fold) != len(poll) {
			t.Fatalf("fold watched %d domains, poll %d", len(fold), len(poll))
		}
		for i := range fold {
			if d := exportedDiff(fold[i], poll[i]); d != "" {
				t.Errorf("%s: fold and poll differ in %s", fold[i].Domain, d)
			}
		}
		if pollRep.Reads != pollRep.Probes {
			t.Errorf("poll read %d of %d probes", pollRep.Reads, pollRep.Probes)
		}
		if foldRep.Reads > pollRep.Reads {
			t.Errorf("fold read %d probes, poll %d", foldRep.Reads, pollRep.Reads)
		}
		foldRep.Reads = pollRep.Reads
		if !reflect.DeepEqual(foldRep, pollRep) {
			t.Errorf("report: fold %+v, poll %+v", foldRep, pollRep)
		}
		if !reflect.DeepEqual(foldObs, pollObs) {
			t.Errorf("fold delivered %d observations, poll %d, streams differ", len(foldObs), len(pollObs))
		}
	})
}

// exportedDiff names the first exported DomainState field in which a and
// b differ, or returns "".
func exportedDiff(a, b DomainState) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		field := va.Type().Field(i)
		if field.IsExported() && !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return fmt.Sprintf("%s: %v against %v", field.Name, va.Field(i), vb.Field(i))
		}
	}
	return ""
}

// TestNotificationsRaceRounds is the -race workout for the fold under the
// real-time clock: rounds fire on timer goroutines every couple of
// milliseconds while four goroutines admit watches, one republishes
// answers — each set calling the fleet back from the mutating goroutine —
// and one copies states out, settling their folded rounds. Every watch
// must retire, and no fleet may read more probes than it counts.
func TestNotificationsRaceRounds(t *testing.T) {
	const admitters, perAdmitter = 4, 60
	cfg := DefaultConfig()
	cfg.Interval = 2 * time.Millisecond
	cfg.Window = 60 * time.Millisecond
	b := newNotifyBackend()
	f := NewFleet(cfg, simclock.Real{}, b)
	name := func(g, i int) string { return fmt.Sprintf("g%d-%03d.com", g, i) }

	stop := make(chan struct{})
	var side sync.WaitGroup
	side.Add(2)
	go func() { // republishes answers until stopped
		defer side.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b.set(name(i%admitters, i%perAdmitter), scripted{inZone: i%3 != 0, ns: i % len(nsPool), a: i % len(aPool)})
			if i%50 == 49 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	go func() { // copies states out, settling them
		defer side.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f.State(name(i%admitters, i%perAdmitter))
			if i%20 == 19 {
				f.States()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < admitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perAdmitter; i++ {
				f.Watch(name(g, i))
				if i%10 == 9 {
					time.Sleep(time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for f.Report().Finished < admitters*perAdmitter {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never drained: %+v", f.Report())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	side.Wait()
	rep := f.Report()
	if rep.Reads > rep.Probes || rep.Reads < int64(admitters*perAdmitter) {
		t.Errorf("%d reads for %d probes of %d watches", rep.Reads, rep.Probes, admitters*perAdmitter)
	}
}
