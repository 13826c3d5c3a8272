// Persistent columnar world snapshots — the eighth engine.
//
// A compiled world (the full []*Layout the compile fan-out produces) is a
// pure function of (seed, Config shape), so it can be serialized once and
// replayed into any number of campaigns: load replaces the entire compile
// phase with a columnar decode that feeds the (already parallel) commit
// engine directly. The container is a small multi-table format — outer
// magic plus a header carrying (format version, seed, Config-shape hash),
// followed by named length-prefixed tables, each body a complete
// self-describing DCOL file (internal/columnar). Every table writes one
// row group per layout chunk, mirroring the compile fan-out's unit
// structure, its typed columns filled from the layout's records. Names are
// plain string columns (distinct by construction, so no dictionary);
// domain and ghost rows carry no TLD (their layout's is theirs); a
// registration's NS sets are stored as hosting.NSSetIDs, its DNS host as
// the ns set's provider, and its web address as an IPv4 number. A table's
// body is built in full before its length can be written, in blocks that
// the next save reuses. A header mismatch (different seed, different
// world shape, unknown version) is never an error at build time: New
// falls back to compiling, so a stale snapshot costs nothing but the
// decode attempt.
package worldsim

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"darkdns/internal/blocklist"
	"darkdns/internal/columnar"
	"darkdns/internal/hosting"
	"darkdns/internal/noddfeed"
	"darkdns/internal/registrar"
)

// snapMagic and snapVersion identify the snapshot container. Bump the
// version on any schema change: LoadSnapshot rejects unknown versions and
// the builder falls back to compiling.
const (
	snapMagic   = "DSNW1\n"
	snapVersion = 2
)

// Engine counters, exposed for the sweep engine's compiled-exactly-once
// assertion and for operator stats. Atomics: builds may run concurrently.
var (
	compileCount  atomic.Int64
	snapshotLoads atomic.Int64
)

// CompileCount returns the number of compile fan-outs executed by this
// process (one per world built without a usable snapshot).
func CompileCount() int64 { return compileCount.Load() }

// SnapshotLoadCount returns the number of worlds built from a snapshot
// instead of a compile fan-out.
func SnapshotLoadCount() int64 { return snapshotLoads.Load() }

// LayoutSet is a compiled world keyed by its provenance: the seed and the
// Config-shape hash that produced it. It is the unit snapshots serialize.
type LayoutSet struct {
	Seed       int64
	ConfigHash uint64
	Layouts    []*Layout
}

// Domains returns the total registration count across the set's layouts
// (the denominator of the snapshot benches' domains/s metric).
func (ls *LayoutSet) Domains() int {
	n := 0
	for _, l := range ls.Layouts {
		n += len(l.domains)
	}
	return n
}

// Matches reports whether this layout set was compiled from the same
// (seed, world shape) as cfg. Worker widths and the snapshot path itself
// do not participate: they change how a world is built, not what it is.
func (ls *LayoutSet) Matches(cfg Config) bool {
	cfg = cfg.withDefaults()
	return ls.Seed == cfg.Seed && ls.ConfigHash == cfg.shapeHash()
}

// CompileLayoutSet compiles cfg's world layouts without building a World.
// The compile environment (CA count, blocklist models, NOD coverage
// model) is constant across worlds, so the result is exactly what New
// would compile — the sweep engine uses this to produce one snapshot per
// distinct (seed, shape) ahead of the campaign fan-out.
func CompileLayoutSet(cfg Config) *LayoutSet {
	cfg = cfg.withDefaults()
	env := &buildEnv{
		cfg:    &cfg,
		numCAs: len(caNames),
		lists:  blocklist.NewAggregator(nil).Models(),
		nodCfg: noddfeed.DefaultConfig(),
	}
	return &LayoutSet{Seed: cfg.Seed, ConfigHash: cfg.shapeHash(), Layouts: compileLayouts(env)}
}

// shapeHash fingerprints every Config field that shapes the compiled
// layouts: the seed, window, scale, rates and the full plan tables.
// The Engines widths and SnapshotPath are excluded — they pick an
// execution strategy, and any width compiles the identical world.
func (cfg Config) shapeHash() uint64 {
	var sb strings.Builder
	fmt.Fprintf(&sb, "v%d|seed=%d|start=%d|weeks=%d|scale=%g|fdm=%g|tcr=%g|ghost=%g|early=%g|nsch=%g|rereg=%g|nodc=%g|nodn=%g",
		snapVersion, cfg.Seed, cfg.Start.UnixNano(), cfg.Weeks, cfg.Scale,
		cfg.FastDeletedMultiplier, cfg.TransientCertRate, cfg.GhostRate,
		cfg.EarlyRemovedRate, cfg.NSChangeRate, cfg.ReRegistrationRate,
		cfg.NODRateWithCert, cfg.NODRateNoCert)
	for _, p := range cfg.Plans {
		fmt.Fprintf(&sb, "|plan=%s,%d,%v,%g,%v", p.TLD, p.ZoneNRDs, p.MonthlyCT, p.CertCoverage, p.Transients)
	}
	fmt.Fprintf(&sb, "|cc=%s,%d,%d,%g", cfg.CCTLD.TLD, cfg.CCTLD.FastDeleted, cfg.CCTLD.Normal, cfg.CCTLD.TransientCertRate)
	h := uint64(1469598103934665603) // FNV-1a offset basis
	s := sb.String()
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// Table schemas -------------------------------------------------------------

// tableSchemas is the schema each table is written with, by table name.
var tableSchemas = map[string]columnar.Schema{
	"layouts": layoutsSchema(),
	"domains": domainsSchema(),
	"ghosts":  ghostsSchema(),
	"nod":     seedSchema(),
	"dzdb":    seedSchema(),
	"flags":   flagsSchema(),
}

func layoutsSchema() columnar.Schema {
	return columnar.Schema{
		{Name: "idx", Type: columnar.TypeInt64},
		{Name: "tld", Type: columnar.TypeString},
	}
}

// domainsSchema and ghostsSchema hold no TLD: a row's TLD is its layout's.
// The name columns here and in seedSchema and flagsSchema are plain: names
// are distinct by construction, so a dictionary would only cost a map
// probe per row. A registration's NS sets are stored as the draws they
// came from, hosting.NSSetIDs (alt_ns 0 when it has none), and its DNS
// host is the ns set's provider; its web address is stored as its IPv4
// number.
func domainsSchema() columnar.Schema {
	return columnar.Schema{
		{Name: "layout", Type: columnar.TypeInt64},
		{Name: "name", Type: columnar.TypePlainString},
		{Name: "registrar", Type: columnar.TypeString},
		{Name: "created", Type: columnar.TypeInt64},
		{Name: "lifetime", Type: columnar.TypeInt64},
		{Name: "fast_delete", Type: columnar.TypeBool},
		{Name: "malicious", Type: columnar.TypeBool},
		{Name: "reason", Type: columnar.TypeInt64},
		{Name: "cert_asked", Type: columnar.TypeBool},
		{Name: "web_host", Type: columnar.TypeString},
		{Name: "has_mx", Type: columnar.TypeBool},
		{Name: "has_spf", Type: columnar.TypeBool},
		{Name: "ns", Type: columnar.TypeInt64},
		{Name: "web", Type: columnar.TypeInt64},
		{Name: "ca_idx", Type: columnar.TypeInt64},
		{Name: "cert_delay", Type: columnar.TypeInt64},
		{Name: "retry_seed", Type: columnar.TypeInt64},
		{Name: "ns_change", Type: columnar.TypeBool},
		{Name: "ns_change_at", Type: columnar.TypeInt64},
		{Name: "alt_ns", Type: columnar.TypeInt64},
	}
}

func ghostsSchema() columnar.Schema {
	return columnar.Schema{
		{Name: "layout", Type: columnar.TypeInt64},
		{Name: "name", Type: columnar.TypePlainString},
		{Name: "created", Type: columnar.TypeInt64},
		{Name: "ca_idx", Type: columnar.TypeInt64},
		{Name: "token_at", Type: columnar.TypeInt64},
		{Name: "in_dzdb", Type: columnar.TypeBool},
	}
}

func seedSchema() columnar.Schema {
	return columnar.Schema{
		{Name: "layout", Type: columnar.TypeInt64},
		{Name: "domain", Type: columnar.TypePlainString},
		{Name: "at", Type: columnar.TypeInt64},
	}
}

func flagsSchema() columnar.Schema {
	return columnar.Schema{
		{Name: "layout", Type: columnar.TypeInt64},
		{Name: "domain", Type: columnar.TypePlainString},
		{Name: "list", Type: columnar.TypeString},
		{Name: "at", Type: columnar.TypeInt64},
	}
}

// Encoding helpers ----------------------------------------------------------

// nsSetAt checks a stored NS set ID: 0 (no set) or a catalog set's.
func nsSetAt(v int64) (hosting.NSSetID, error) {
	id := hosting.NSSetID(v)
	if v < 0 || int64(id) != v || (id != 0 && id.Names() == nil) {
		return 0, fmt.Errorf("worldsim: no nameserver set %d", v)
	}
	return id, nil
}

func nanoTime(ns int64) time.Time { return time.Unix(0, ns).UTC() }

// caAt checks a stored CA index: one of the world's CAs.
func caAt(v int64) (uint8, error) {
	if v < 0 || v >= int64(len(caNames)) {
		return 0, fmt.Errorf("worldsim: no CA %d", v)
	}
	return uint8(v), nil
}

// spareBody is the block buffer of the last save that finished, kept for
// the next one: after its first save a process builds table bodies in
// memory it already has. It holds as many 1 MiB blocks as that save's
// largest table needed (7 for a 10⁵-domain world) for the life of the
// process. A save running while another holds it builds in a buffer of
// its own.
var spareBody atomic.Pointer[blockBuffer]

// SaveSnapshot serializes a compiled layout set to w.
func SaveSnapshot(w io.Writer, ls *LayoutSet) error {
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return err
	}
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, snapVersion)
	hdr = binary.AppendVarint(hdr, ls.Seed)
	hdr = binary.AppendUvarint(hdr, ls.ConfigHash)
	if _, err := w.Write(hdr); err != nil {
		return err
	}

	// One body buffer serves every table of the save.
	body := spareBody.Swap(nil)
	if body == nil {
		body = new(blockBuffer)
	}
	defer spareBody.Store(body)

	if err := writeTable(w, body, "layouts", layoutsSchema(), func(cw *columnar.Writer) error {
		idx, tld := make([]int64, len(ls.Layouts)), make([]string, len(ls.Layouts))
		for i, l := range ls.Layouts {
			idx[i], tld[i] = int64(i), l.tld
		}
		return cw.Write(&columnar.RowGroup{Rows: len(ls.Layouts), Cols: []columnar.Values{{Ints: idx}, {Strs: tld}}})
	}); err != nil {
		return err
	}

	// Each table writes one row group per layout: the compile fan-out's
	// unit structure. The columns are filled row by row from the layout's
	// records and keep their storage from one layout to the next.
	if err := writeTable(w, body, "domains", domainsSchema(), func(cw *columnar.Writer) error {
		var (
			layout, created, lifetime, reason, ns, web, caIdx, certDelay, retry, nsChangeAt, altNS []int64
			names, regs, webHosts                                                                  []string
			fastDel, mal, certAsk, hasMX, hasSPF, nsChange                                         []bool
		)
		for i, l := range ls.Layouts {
			layout, created, lifetime, reason, ns, web = layout[:0], created[:0], lifetime[:0], reason[:0], ns[:0], web[:0]
			caIdx, certDelay, retry, nsChangeAt, altNS = caIdx[:0], certDelay[:0], retry[:0], nsChangeAt[:0], altNS[:0]
			names, regs, webHosts = names[:0], regs[:0], webHosts[:0]
			fastDel, mal, certAsk, hasMX, hasSPF, nsChange = fastDel[:0], mal[:0], certAsk[:0], hasMX[:0], hasSPF[:0], nsChange[:0]
			for j := range l.domains {
				r := &l.domains[j]
				d := r.d
				switch {
				case d.TLD != l.tld:
					return fmt.Errorf("worldsim: %s is laid out under .%s", d.Name, l.tld)
				case r.nsSet.Names() == nil || r.nsSet.Provider().Name != d.DNSHost:
					return fmt.Errorf("worldsim: %s: NS set %d is not one of its DNS host %s", d.Name, r.nsSet, d.DNSHost)
				case r.web == [4]byte{}:
					return fmt.Errorf("worldsim: %s has no web address", d.Name)
				}

				layout = append(layout, int64(i))
				names, regs = append(names, d.Name), append(regs, d.Registrar)
				created, lifetime = append(created, d.Created.UnixNano()), append(lifetime, int64(d.Lifetime))
				fastDel, mal = append(fastDel, d.FastDelete), append(mal, d.Malicious)
				reason, certAsk = append(reason, int64(d.Reason)), append(certAsk, d.CertAsked)
				webHosts, hasMX, hasSPF = append(webHosts, d.WebHost), append(hasMX, d.HasMX), append(hasSPF, d.HasSPF)
				ns, web = append(ns, int64(r.nsSet)), append(web, int64(binary.BigEndian.Uint32(r.web[:])))
				caIdx, certDelay = append(caIdx, int64(r.caIdx)), append(certDelay, int64(r.certDelay))
				retry, nsChange = append(retry, int64(r.retrySeed)), append(nsChange, r.nsChange)
				nsChangeAt, altNS = append(nsChangeAt, int64(r.nsChangeAt)), append(altNS, int64(r.altSet))
			}
			if err := cw.Write(&columnar.RowGroup{Rows: len(l.domains), Cols: []columnar.Values{
				{Ints: layout}, {Strs: names}, {Strs: regs}, {Ints: created}, {Ints: lifetime},
				{Bools: fastDel}, {Bools: mal}, {Ints: reason}, {Bools: certAsk},
				{Strs: webHosts}, {Bools: hasMX}, {Bools: hasSPF},
				{Ints: ns}, {Ints: web}, {Ints: caIdx}, {Ints: certDelay}, {Ints: retry},
				{Bools: nsChange}, {Ints: nsChangeAt}, {Ints: altNS},
			}}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := writeTable(w, body, "ghosts", ghostsSchema(), func(cw *columnar.Writer) error {
		var (
			layout, created, caIdx, tokenAt []int64
			names                           []string
			inDZDB                          []bool
		)
		for i, l := range ls.Layouts {
			layout, created, caIdx, tokenAt, names, inDZDB = layout[:0], created[:0], caIdx[:0], tokenAt[:0], names[:0], inDZDB[:0]
			for j := range l.ghosts {
				g := &l.ghosts[j]
				if g.d.TLD != l.tld {
					return fmt.Errorf("worldsim: ghost %s is laid out under .%s", g.d.Name, l.tld)
				}
				layout, names = append(layout, int64(i)), append(names, g.d.Name)
				created, caIdx = append(created, g.d.Created.UnixNano()), append(caIdx, int64(g.caIdx))
				tokenAt, inDZDB = append(tokenAt, g.tokenAt.UnixNano()), append(inDZDB, g.inDZDB)
			}
			if err := cw.Write(&columnar.RowGroup{Rows: len(l.ghosts), Cols: []columnar.Values{
				{Ints: layout}, {Strs: names}, {Ints: created}, {Ints: caIdx}, {Ints: tokenAt}, {Bools: inDZDB},
			}}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	feeds := func(pick func(l *Layout) []feedSeed) func(cw *columnar.Writer) error {
		return func(cw *columnar.Writer) error {
			var (
				layout, at []int64
				domains    []string
			)
			for i, l := range ls.Layouts {
				layout, at, domains = layout[:0], at[:0], domains[:0]
				for _, s := range pick(l) {
					layout, domains, at = append(layout, int64(i)), append(domains, s.domain), append(at, s.at)
				}
				if err := cw.Write(&columnar.RowGroup{Rows: len(layout), Cols: []columnar.Values{
					{Ints: layout}, {Strs: domains}, {Ints: at},
				}}); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if err := writeTable(w, body, "nod", seedSchema(), feeds(func(l *Layout) []feedSeed { return l.nod })); err != nil {
		return err
	}
	if err := writeTable(w, body, "dzdb", seedSchema(), feeds(func(l *Layout) []feedSeed { return l.dzdb })); err != nil {
		return err
	}
	if err := writeTable(w, body, "flags", flagsSchema(), func(cw *columnar.Writer) error {
		var (
			layout, at     []int64
			domains, lists []string
		)
		for i, l := range ls.Layouts {
			layout, at, domains, lists = layout[:0], at[:0], domains[:0], lists[:0]
			for _, f := range l.flags {
				layout, at = append(layout, int64(i)), append(at, f.At.UnixNano())
				domains, lists = append(domains, f.Domain), append(lists, f.List)
			}
			if err := cw.Write(&columnar.RowGroup{Rows: len(l.flags), Cols: []columnar.Values{
				{Ints: layout}, {Strs: domains}, {Strs: lists}, {Ints: at},
			}}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// Empty table name terminates the container.
	_, err := w.Write(binary.AppendUvarint(nil, 0))
	return err
}

// writeTable emits one named table: uvarint name length + name, uvarint
// body length + body, where the body is a complete DCOL file. The body is
// framed by its length, so it is built in full in body first.
func writeTable(w io.Writer, body *blockBuffer, name string, schema columnar.Schema, fill func(*columnar.Writer) error) error {
	body.reset()
	cw := columnar.NewWriter(body, schema, 0)
	if err := fill(cw); err != nil {
		return err
	}
	if err := cw.Close(); err != nil {
		return err
	}
	out := binary.AppendUvarint(nil, uint64(len(name)))
	out = append(out, name...)
	out = binary.AppendUvarint(out, uint64(body.len()))
	if _, err := w.Write(out); err != nil {
		return err
	}
	return body.writeTo(w)
}

// bodyBlock is the size of a blockBuffer block.
const bodyBlock = 1 << 20

// blockBuffer holds a table body in fixed-size blocks filled in order, so
// growing it never copies what it already holds. reset keeps the blocks,
// and SaveSnapshot hands the buffer to the next save (spareBody), so only
// a process's first save, or one with a larger table than any before it,
// allocates blocks.
type blockBuffer struct {
	blocks [][]byte
	cur    int // index of the block being filled
}

func (b *blockBuffer) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if b.cur == len(b.blocks) {
			b.blocks = append(b.blocks, make([]byte, 0, bodyBlock))
		}
		blk := b.blocks[b.cur]
		k := copy(blk[len(blk):cap(blk)], p)
		b.blocks[b.cur] = blk[:len(blk)+k]
		p = p[k:]
		if len(blk)+k == cap(blk) {
			b.cur++
		}
	}
	return n, nil
}

func (b *blockBuffer) len() int {
	n := 0
	for _, blk := range b.blocks {
		n += len(blk)
	}
	return n
}

func (b *blockBuffer) writeTo(w io.Writer) error {
	for _, blk := range b.blocks {
		if len(blk) == 0 {
			break
		}
		if _, err := w.Write(blk); err != nil {
			return err
		}
	}
	return nil
}

func (b *blockBuffer) reset() {
	for i := range b.blocks {
		b.blocks[i] = b.blocks[i][:0]
	}
	b.cur = 0
}

// LoadSnapshot decodes a layout set from r. Errors cover corruption and
// unknown versions; callers decide whether a failed load falls back to
// compiling (the builder does) or surfaces (tests do).
func LoadSnapshot(r io.Reader) (*LayoutSet, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	head := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("worldsim: reading snapshot magic: %w", err)
	}
	if string(head) != snapMagic {
		return nil, errors.New("worldsim: not a world snapshot")
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if version != snapVersion {
		return nil, fmt.Errorf("worldsim: snapshot version %d (want %d)", version, snapVersion)
	}
	seed, err := binary.ReadVarint(br)
	if err != nil {
		return nil, err
	}
	hash, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	ls := &LayoutSet{Seed: seed, ConfigHash: hash}

	// Tables decode as they stream past: each table's row groups are
	// consumed the moment they're read, so peak memory is one group's
	// columns plus the growing layout set — never the whole file's worth
	// of decoded columns. Writer order (layouts first) is part of the
	// versioned format; a reordered file fails the layout-bounds checks.
	seen := make(map[string]bool)
	for {
		nameLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("worldsim: reading table name: %w", err)
		}
		if nameLen == 0 {
			break
		}
		if nameLen > 1<<10 {
			return nil, errors.New("worldsim: absurd table name length")
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return nil, err
		}
		bodyLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		// The limit is the table's frame: the columnar reader fails a body
		// with bytes after its end marker, and every decoder below reads
		// its table to that marker, so no byte of a frame goes unchecked.
		cr, err := columnar.NewReader(io.LimitReader(br, int64(bodyLen)))
		if err != nil {
			return nil, fmt.Errorf("worldsim: table %q: %w", nameBuf, err)
		}
		// The decoders index a known table's columns by name and type.
		if want, ok := tableSchemas[string(nameBuf)]; ok && !slices.Equal(cr.Schema(), want) {
			return nil, fmt.Errorf("worldsim: table %q has schema %s, want %s", nameBuf, cr.Schema(), want)
		}
		// Every decoder below consumes its group before pulling the next,
		// so the reader can recycle column storage between groups.
		cr.Reuse()
		name := string(nameBuf)
		switch name {
		case "layouts":
			err = ls.decodeLayouts(cr)
		case "domains":
			err = ls.decodeDomains(cr)
		case "ghosts":
			err = ls.decodeGhosts(cr)
		case "nod":
			err = ls.decodeFeed(cr, func(l *Layout) *[]feedSeed { return &l.nod })
		case "dzdb":
			err = ls.decodeFeed(cr, func(l *Layout) *[]feedSeed { return &l.dzdb })
		case "flags":
			err = ls.decodeFlags(cr)
		default:
			// An unknown table is read to its end, so the stream stays
			// aligned for the tables that follow it.
			err = eachGroup(cr, func(*columnar.RowGroup) error { return nil })
		}
		if err != nil {
			return nil, fmt.Errorf("worldsim: table %q: %w", name, err)
		}
		seen[name] = true
	}
	for _, want := range []string{"layouts", "domains", "ghosts", "nod", "dzdb", "flags"} {
		if !seen[want] {
			return nil, fmt.Errorf("worldsim: snapshot missing table %q", want)
		}
	}
	return ls, nil
}

// eachGroup calls fn for each of a table's row groups in order, to the
// table's end.
func eachGroup(r *columnar.Reader, fn func(g *columnar.RowGroup) error) error {
	for {
		g, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(g); err != nil {
			return err
		}
	}
}

// layoutOf resolves a row's "layout" column value against ls.Layouts.
func (ls *LayoutSet) layoutOf(idx int64) (*Layout, error) {
	if idx < 0 || idx >= int64(len(ls.Layouts)) {
		return nil, fmt.Errorf("worldsim: layout index %d out of range", idx)
	}
	return ls.Layouts[idx], nil
}

func (ls *LayoutSet) decodeLayouts(r *columnar.Reader) error {
	return eachGroup(r, func(g *columnar.RowGroup) error {
		idxs, tlds := g.Col("idx").Ints, g.Col("tld").Strs
		for i := 0; i < g.Rows; i++ {
			if idxs[i] != int64(len(ls.Layouts)) {
				return errors.New("worldsim: layout table out of order")
			}
			ls.Layouts = append(ls.Layouts, &Layout{tld: tlds[i]})
		}
		return nil
	})
}

func (ls *LayoutSet) decodeDomains(r *columnar.Reader) error {
	return eachGroup(r, func(g *columnar.RowGroup) error {
		var (
			idxs     = g.Col("layout").Ints
			names    = g.Col("name").Strs
			regs     = g.Col("registrar").Strs
			created  = g.Col("created").Ints
			lifetime = g.Col("lifetime").Ints
			fastDel  = g.Col("fast_delete").Bools
			mal      = g.Col("malicious").Bools
			reasons  = g.Col("reason").Ints
			certAsk  = g.Col("cert_asked").Bools
			webHosts = g.Col("web_host").Strs
			hasMX    = g.Col("has_mx").Bools
			hasSPF   = g.Col("has_spf").Bools
			nsCol    = g.Col("ns").Ints
			webCol   = g.Col("web").Ints
			caIdxs   = g.Col("ca_idx").Ints
			certDel  = g.Col("cert_delay").Ints
			retry    = g.Col("retry_seed").Ints
			nsChg    = g.Col("ns_change").Bools
			nsChgAt  = g.Col("ns_change_at").Ints
			altCol   = g.Col("alt_ns").Ints
		)
		// One Domain and one regLayout slab per group, as compile lays
		// out a chunk, instead of two heap objects per row. Fields are
		// set one by one into the zeroed slabs.
		ds := make([]Domain, g.Rows)
		rls := make([]regLayout, g.Rows)
		for i := 0; i < g.Rows; i++ {
			l, err := ls.layoutOf(idxs[i])
			if err != nil {
				return err
			}
			nsID, err := nsSetAt(nsCol[i])
			if err != nil {
				return err
			}
			if nsID == 0 {
				return fmt.Errorf("worldsim: %s has no nameserver set", names[i])
			}
			altID, err := nsSetAt(altCol[i])
			if err != nil {
				return err
			}
			// 0.0.0.0 is no provider's address: the record keeps it for none.
			if webCol[i] <= 0 || webCol[i] > math.MaxUint32 {
				return fmt.Errorf("worldsim: web address %d is not a host's IPv4 number", webCol[i])
			}
			caIdx, err := caAt(caIdxs[i])
			if err != nil {
				return err
			}

			d := &ds[i]
			d.Name, d.TLD, d.Registrar = names[i], l.tld, regs[i]
			d.Created, d.Lifetime = nanoTime(created[i]), time.Duration(lifetime[i])
			d.FastDelete, d.Malicious = fastDel[i], mal[i]
			d.Reason, d.CertAsked = registrar.RemovalReason(reasons[i]), certAsk[i]
			d.DNSHost, d.WebHost = nsID.Provider().Name, webHosts[i]
			d.HasMX, d.HasSPF = hasMX[i], hasSPF[i]
			r := &rls[i]
			r.d, r.nsSet, r.caIdx = d, nsID, caIdx
			binary.BigEndian.PutUint32(r.web[:], uint32(webCol[i]))
			r.certDelay, r.retrySeed = time.Duration(certDel[i]), uint64(retry[i])
			r.nsChange, r.nsChangeAt, r.altSet = nsChg[i], time.Duration(nsChgAt[i]), altID
		}
		forRuns(idxs[:g.Rows], func(start, end int) {
			l := ls.Layouts[idxs[start]]
			l.domains = adopt(l.domains, rls[start:end])
		})
		return nil
	})
}

func (ls *LayoutSet) decodeGhosts(r *columnar.Reader) error {
	return eachGroup(r, func(g *columnar.RowGroup) error {
		var (
			idxs    = g.Col("layout").Ints
			names   = g.Col("name").Strs
			created = g.Col("created").Ints
			caIdxs  = g.Col("ca_idx").Ints
			tokenAt = g.Col("token_at").Ints
			inDZDB  = g.Col("in_dzdb").Bools
		)
		ds := make([]Domain, g.Rows)
		gls := make([]ghostLayout, g.Rows)
		for i := 0; i < g.Rows; i++ {
			l, err := ls.layoutOf(idxs[i])
			if err != nil {
				return err
			}
			caIdx, err := caAt(caIdxs[i])
			if err != nil {
				return err
			}
			ds[i] = Domain{
				Name:    names[i],
				TLD:     l.tld,
				Created: nanoTime(created[i]),
				Ghost:   true,
			}
			gls[i] = ghostLayout{
				d:       &ds[i],
				caIdx:   int(caIdx),
				tokenAt: nanoTime(tokenAt[i]),
				inDZDB:  inDZDB[i],
			}
		}
		forRuns(idxs[:g.Rows], func(start, end int) {
			l := ls.Layouts[idxs[start]]
			l.ghosts = adopt(l.ghosts, gls[start:end])
		})
		return nil
	})
}

// forRuns calls f for each run idxs[start:end] of equal layout index.
// The writer emits one group per layout, so a group is normally one run.
func forRuns(idxs []int64, f func(start, end int)) {
	for start := 0; start < len(idxs); {
		end := start + 1
		for end < len(idxs) && idxs[end] == idxs[start] {
			end++
		}
		f(start, end)
		start = end
	}
}

// adopt appends run to a layout's slab. A layout's first run becomes its
// slab as it stands, capped so that a later append copies rather than
// overwriting the rows that follow it in the group's slab.
func adopt[T any](slab, run []T) []T {
	if len(slab) == 0 {
		return run[:len(run):len(run)]
	}
	return append(slab, run...)
}

// decodeFeed decodes a seedings table into the slab seeds picks from
// each layout.
func (ls *LayoutSet) decodeFeed(r *columnar.Reader, seeds func(*Layout) *[]feedSeed) error {
	return eachGroup(r, func(g *columnar.RowGroup) error {
		idxs, domains, at := g.Col("layout").Ints, g.Col("domain").Strs, g.Col("at").Ints
		run := make([]feedSeed, g.Rows)
		for i := range run {
			if _, err := ls.layoutOf(idxs[i]); err != nil {
				return err
			}
			run[i] = feedSeed{domain: domains[i], at: at[i]}
		}
		forRuns(idxs[:g.Rows], func(start, end int) {
			slab := seeds(ls.Layouts[idxs[start]])
			*slab = adopt(*slab, run[start:end])
		})
		return nil
	})
}

func (ls *LayoutSet) decodeFlags(r *columnar.Reader) error {
	return eachGroup(r, func(g *columnar.RowGroup) error {
		idxs, domains, lists, at := g.Col("layout").Ints, g.Col("domain").Strs, g.Col("list").Strs, g.Col("at").Ints
		run := make([]blocklist.Flag, g.Rows)
		for i := range run {
			if _, err := ls.layoutOf(idxs[i]); err != nil {
				return err
			}
			run[i] = blocklist.Flag{Domain: domains[i], List: lists[i], At: nanoTime(at[i])}
		}
		forRuns(idxs[:g.Rows], func(start, end int) {
			l := ls.Layouts[idxs[start]]
			l.flags = adopt(l.flags, run[start:end])
		})
		return nil
	})
}

// File-level helpers --------------------------------------------------------

// SaveSnapshotFile writes a snapshot atomically: the bytes land in a
// temp file in the target directory and rename into place, so concurrent
// sweep cells racing on the same path see either nothing or a complete
// snapshot.
func SaveSnapshotFile(path string, ls *LayoutSet) error {
	tmp, err := os.CreateTemp(pathDir(path), ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := SaveSnapshot(tmp, ls); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func pathDir(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return "."
}

// LoadSnapshotFile reads a snapshot from disk.
func LoadSnapshotFile(path string) (*LayoutSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSnapshot(f)
}

// layoutsFor resolves a build's layouts: when the config names a snapshot
// path, a matching snapshot replaces the compile fan-out entirely (the
// load feeds the commit directly); a missing, stale or corrupt
// snapshot falls back to compiling, and the freshly compiled world is
// saved back to the path best-effort for the next build.
func layoutsFor(env *buildEnv) []*Layout {
	cfg := env.cfg
	if cfg.SnapshotPath != "" {
		if ls, err := LoadSnapshotFile(cfg.SnapshotPath); err == nil && ls.Matches(*cfg) {
			snapshotLoads.Add(1)
			return ls.Layouts
		}
		layouts := compileLayouts(env)
		ls := &LayoutSet{Seed: cfg.Seed, ConfigHash: cfg.shapeHash(), Layouts: layouts}
		_ = SaveSnapshotFile(cfg.SnapshotPath, ls) // best-effort cache fill
		return layouts
	}
	return compileLayouts(env)
}
