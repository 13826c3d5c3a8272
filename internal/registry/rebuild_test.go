package registry

import (
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"darkdns/internal/simclock"
)

// cadenceModel is the brute-force reading of a registry's rebuild
// cadence: at every grid instant T = origin + k·period the live zone
// shows every mutation made before T, and the SOA serial moves at the
// instants some mutation was made since the one before. It keeps the
// whole ledger and re-derives zone state from it at every grid instant.
type cadenceModel struct {
	origin, grid time.Time // grid: the last grid instant applied
	period       time.Duration
	regs         map[string][]*modelReg // per name, in registration order
	zone         map[string][]string    // the live zone's NS set per name
	serial       uint32
	dirty        bool // a mutation since the last grid instant
}

type modelReg struct {
	created, deleted    time.Time
	inZoneAt, outZoneAt time.Time
	ns                  modelNS
	web                 netip.Addr
}

// modelNS is an NS set as a registrant passes it and as the zone
// delegates it: canonical and sorted, written out by hand rather than
// derived the way the registry derives it.
type modelNS struct{ raw, zone []string }

// modelProbe is one spelling a caller may ask the registry about, with
// the registrable name whose delegation answers it ("" for none) and
// whether it is that name itself, written out by hand.
type modelProbe struct {
	name, owner string
	exact       bool
}

// modelProbes names the registered names in every spelling, names below
// them, a name never registered, foreign and unknown TLDs, the apex and
// the root.
var modelProbes = []modelProbe{
	{"a.com", "a.com", true}, {"A.COM.", "a.com", true}, {"b.com", "b.com", true},
	{"B.Com", "b.com", true}, {"c.com.", "c.com", true}, {"C.com", "c.com", true},
	{"www.a.com", "a.com", false}, {"WWW.a.com.", "a.com", false}, {"a.b.c.com", "c.com", false},
	{"d.com", "d.com", true}, {"www.d.com", "d.com", false}, // never registered
	{"a.org", "", false}, {"www.a.org", "", false}, {"a.co", "", false}, {"a.nosuchtld", "", false},
	{"com", "", false}, {"com.", "", false}, {"", "", false}, {".", "", false},
}

// answer is what the live zone answers p with: the owner's delegation,
// and the A answer of its newest registration when p is the owner itself.
func (m *cadenceModel) answer(p modelProbe) Answer {
	ns, ok := m.zone[p.owner]
	if !ok {
		return Answer{}
	}
	ans := Answer{NS: ns, Delegated: true, InZone: p.exact}
	if regs := m.regs[p.owner]; p.exact && regs[len(regs)-1].web.IsValid() {
		ans.A = []netip.Addr{regs[len(regs)-1].web}
	}
	return ans
}

func newCadenceModel(origin time.Time, period time.Duration) *cadenceModel {
	return &cadenceModel{
		origin: origin, grid: origin, period: period,
		regs: make(map[string][]*modelReg), zone: make(map[string][]string), serial: 1,
	}
}

// active returns name's newest registration while it is not deleted.
func (m *cadenceModel) active(name string) *modelReg {
	regs := m.regs[name]
	if len(regs) == 0 || !regs[len(regs)-1].deleted.IsZero() {
		return nil
	}
	return regs[len(regs)-1]
}

// advanceTo applies every grid instant up to and including t.
func (m *cadenceModel) advanceTo(t time.Time) {
	for next := m.grid.Add(m.period); !next.After(t); next = next.Add(m.period) {
		m.grid = next
		if m.dirty {
			m.serial++
			m.dirty = false
		}
		clear(m.zone)
		for name, regs := range m.regs {
			for i, reg := range regs {
				in := i == len(regs)-1 && reg.deleted.IsZero()
				switch {
				case in && reg.inZoneAt.IsZero():
					reg.inZoneAt = next
				case !in && !reg.inZoneAt.IsZero() && reg.outZoneAt.IsZero():
					reg.outZoneAt = next
				}
				if in {
					m.zone[name] = reg.ns.zone
				}
			}
		}
	}
}

// ledgerKey renders a registration as a sortable string, so two ledgers
// compare as multisets whatever order ties in creation time take.
func ledgerKey(domain string, created, deleted, in, out time.Time, ns []string) string {
	return fmt.Sprintf("%s created=%v deleted=%v in=%v out=%v ns=%v", domain, created, deleted, in, out, ns)
}

func (m *cadenceModel) ledgerKeys() []string {
	var keys []string
	for name, regs := range m.regs {
		for _, reg := range regs {
			keys = append(keys, ledgerKey(name, reg.created, reg.deleted, reg.inZoneAt, reg.outZoneAt, reg.ns.raw))
		}
	}
	slices.Sort(keys)
	return keys
}

// FuzzRebuildsMatchCadence drives a registry through a random timeline
// — registrations, deletions, re-registrations and re-delegations at
// random instants, some made exactly on a grid instant reached with
// Advance — and after every advance holds its live zone, serial and
// ledger zone stamps to cadenceModel: rebuilds armed on demand show
// exactly what a rebuild at every grid instant would. The live zone is
// read every way a caller can: Answer, Delegation, InZone and WebAddrs
// for every spelling in modelProbes, handles resolved before the first
// registration and at the check, and a clone of the zone built from
// Delegation over the names the timeline drives.
func FuzzRebuildsMatchCadence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 5, 0, 2, 0, 5, 0})
	f.Add([]byte{1, 7, 0, 1, 3, 1, 4, 40, 2, 1, 0, 1, 5, 1, 4, 200})
	f.Add([]byte{2, 130, 5, 0, 0, 2, 2, 2, 0, 5, 5, 2, 3, 5, 4, 64, 2, 5})
	f.Add([]byte{0, 33, 4, 17, 0, 0, 2, 0, 0, 3, 5, 0, 1, 4, 2, 4, 5, 1, 3, 4, 4, 255})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) < 2 {
			return
		}
		periods := []time.Duration{time.Minute, 15 * time.Minute, 20 * time.Minute}
		period := periods[int(tape[0])%len(periods)]
		clk := simclock.NewSim(t0)
		clk.Advance(time.Duration(tape[1]) * 7 * time.Second) // the grid's origin need not be the clock's start
		cfg := DefaultConfig("com")
		cfg.ZoneUpdateEvery = period
		r := New(cfg, clk, rand.New(rand.NewSource(1)))
		defer r.Stop()
		m := newCadenceModel(clk.Now(), period)

		names := []string{"a.com", "b.com", "c.com"}
		nsSets := []modelNS{
			{[]string{"ns1.a.net", "ns2.a.net"}, []string{"ns1.a.net", "ns2.a.net"}},
			{[]string{"ns1.b.net"}, []string{"ns1.b.net"}},
			{[]string{"NS2.c.net.", "ns1.c.net"}, []string{"ns1.c.net", "ns2.c.net"}},
		}
		webs := []netip.Addr{{}, netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2")}
		early := make([]Handle, len(modelProbes)) // resolved before any registration
		for i, p := range modelProbes {
			early[i] = r.Resolve(p.name)
		}
		same := func(a, b Answer) bool {
			return a.Delegated == b.Delegated && a.InZone == b.InZone && slices.Equal(a.NS, b.NS) && slices.Equal(a.A, b.A)
		}
		check := func(step int) {
			t.Helper()
			if got := r.Serial(); got != m.serial {
				t.Fatalf("step %d at %v: serial %d, model %d", step, clk.Now(), got, m.serial)
			}
			for i, p := range modelProbes {
				want := m.answer(p)
				ns, ok := r.Delegation(p.name)
				got := Answer{NS: ns, Delegated: ok, InZone: r.InZone(p.name), A: r.WebAddrs(p.name)}
				for _, c := range []struct {
					how string
					ans Answer
				}{
					{"separate accessors", got}, {"Answer", r.Answer(p.name)},
					{"early handle", early[i].Answer()}, {"handle", r.Resolve(p.name).Answer()},
				} {
					if !same(c.ans, want) {
						t.Fatalf("step %d at %v: %s answers %q with %+v, model %+v", step, clk.Now(), c.how, p.name, c.ans, want)
					}
				}
			}
			// The zone as a test-side clone: every driven name's
			// delegation, read through Delegation.
			clone := make(map[string][]string)
			for _, name := range names {
				if ns, ok := r.Delegation(name); ok {
					clone[name] = ns
				}
			}
			if !maps.EqualFunc(clone, m.zone, slices.Equal) {
				t.Fatalf("step %d at %v: the zone delegates %v, model %v", step, clk.Now(), clone, m.zone)
			}
			var got []string
			for reg := range r.Ledger() {
				got = append(got, ledgerKey(reg.Domain, reg.Created, reg.Deleted, reg.InZoneAt, reg.OutOfZoneAt, reg.NS))
			}
			slices.Sort(got)
			if want := m.ledgerKeys(); !slices.Equal(got, want) {
				t.Fatalf("step %d at %v: ledger\n%s\nmodel\n%s", step, clk.Now(), strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}

		for step, i := 0, 2; i+1 < len(tape) && step < 200; step, i = step+1, i+2 {
			op, arg := tape[i], int(tape[i+1])
			name := names[arg%len(names)]
			ns := nsSets[arg/len(names)%len(nsSets)]
			web := webs[arg/(len(names)*len(nsSets))%len(webs)]
			now := clk.Now()
			switch op % 6 {
			case 0, 1:
				_, err := r.Register(name, "R", ns.raw, web)
				if (err == nil) != (m.active(name) == nil) {
					t.Fatalf("step %d: register %s: %v", step, name, err)
				}
				if err == nil {
					m.regs[name] = append(m.regs[name], &modelReg{created: now, ns: ns, web: web})
					m.dirty = true
				}
			case 2:
				err := r.Delete(name)
				reg := m.active(name)
				if (err == nil) != (reg != nil) {
					t.Fatalf("step %d: delete %s: %v", step, name, err)
				}
				if err == nil {
					reg.deleted = now
					m.dirty = true
				}
			case 3:
				err := r.UpdateNS(name, ns.raw)
				reg := m.active(name)
				if (err == nil) != (reg != nil) {
					t.Fatalf("step %d: update %s: %v", step, name, err)
				}
				if err == nil {
					reg.ns = ns
					m.dirty = true
				}
			case 4: // anywhere in the next four periods
				clk.Advance(time.Duration(arg) * period / 64)
				m.advanceTo(clk.Now())
				check(step)
			case 5: // exactly onto a grid instant, where the next mutations land
				next := m.origin.Add((now.Sub(m.origin)/period + 1 + time.Duration(arg%3)) * period)
				clk.RunUntil(next)
				m.advanceTo(clk.Now())
				check(step)
			}
		}
		clk.Advance(period)
		m.advanceTo(clk.Now())
		check(-1)
	})
}

// TestIdleRegistrySchedulesNoRebuilds: once nothing is pending, a
// registry's clock fires only its daily snapshot ticks, whatever its
// cadence — no rebuild event is armed for a zone with nothing to apply.
func TestIdleRegistrySchedulesNoRebuilds(t *testing.T) {
	for _, tld := range []string{"com", "org", "xyz", "nl"} {
		r, clk := newTestRegistry(tld)
		r.Register("busy."+tld, "R", []string{"ns1.a.net"}, netip.Addr{})
		clk.Advance(time.Hour) // the one rebuild it needs
		if !r.InZone("busy." + tld) {
			t.Fatalf("%s: setup: not in zone", tld)
		}
		before := clk.Stats()
		clk.Advance(24 * time.Hour) // crosses the snapshot tick at +24 h
		after := clk.Stats()
		if fired := after.Fired - before.Fired; fired != 1 {
			t.Errorf("%s: an idle day fired %d events, want 1 snapshot tick", tld, fired)
		}
		if after.Pending != 1 {
			t.Errorf("%s: %d events pending after an idle day, want the next snapshot tick alone", tld, after.Pending)
		}
		r.Stop()
	}
}

// TestStopCancelsArmedRebuild: Stop cancels a rebuild already armed, and
// a mutation after Stop arms none.
func TestStopCancelsArmedRebuild(t *testing.T) {
	r, clk := newTestRegistry("com")
	r.Register("armed.com", "R", []string{"ns1.a.net"}, netip.Addr{})
	r.Stop()
	clk.Advance(time.Minute)
	if r.InZone("armed.com") || r.Serial() != 1 {
		t.Errorf("a rebuild armed before Stop ran: in zone %v, serial %d", r.InZone("armed.com"), r.Serial())
	}
	scheduled := clk.Stats().Scheduled
	r.Register("late.com", "R", []string{"ns1.a.net"}, netip.Addr{})
	r.Delete("armed.com")
	if got := clk.Stats().Scheduled; got != scheduled {
		t.Errorf("mutations after Stop scheduled %d events", got-scheduled)
	}
	clk.Advance(48 * time.Hour)
	if r.InZone("late.com") || r.Serial() != 1 {
		t.Errorf("a stopped registry rebuilt: late.com in zone %v, serial %d", r.InZone("late.com"), r.Serial())
	}
}
