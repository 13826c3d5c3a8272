// Persistent columnar world snapshots — the eighth engine.
//
// A compiled world (the full []*Layout the compile fan-out produces) is a
// pure function of (seed, Config shape), so it can be serialized once and
// replayed into any number of campaigns: load replaces the entire compile
// phase with a columnar decode that feeds the (already parallel) commit
// engine directly. The container is a small multi-table format — outer
// magic plus a header carrying (format version, seed, Config-shape hash),
// followed by named length-prefixed tables, each body a complete
// self-describing DCOL file (internal/columnar). Domain rows write one
// row group per layout chunk, mirroring the compile fan-out's unit
// structure. A header mismatch (different seed, different world shape,
// unknown version) is never an error at build time: New falls back to
// compiling, so a stale snapshot costs nothing but the decode attempt.
package worldsim

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"darkdns/internal/blocklist"
	"darkdns/internal/columnar"
	"darkdns/internal/noddfeed"
	"darkdns/internal/registrar"
)

// snapMagic and snapVersion identify the snapshot container. Bump the
// version on any schema change: LoadSnapshot rejects unknown versions and
// the builder falls back to compiling.
const (
	snapMagic   = "DSNW1\n"
	snapVersion = 1
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

func domainsSchema() columnar.Schema {
	return columnar.Schema{
		{Name: "layout", Type: columnar.TypeInt64},
		{Name: "name", Type: columnar.TypeString},
		{Name: "tld", Type: columnar.TypeString},
		{Name: "registrar", Type: columnar.TypeString},
		{Name: "created", Type: columnar.TypeInt64},
		{Name: "lifetime", Type: columnar.TypeInt64},
		{Name: "fast_delete", Type: columnar.TypeBool},
		{Name: "malicious", Type: columnar.TypeBool},
		{Name: "reason", Type: columnar.TypeInt64},
		{Name: "cert_asked", Type: columnar.TypeBool},
		{Name: "dns_host", Type: columnar.TypeString},
		{Name: "web_host", Type: columnar.TypeString},
		{Name: "has_mx", Type: columnar.TypeBool},
		{Name: "has_spf", Type: columnar.TypeBool},
		{Name: "ns", Type: columnar.TypeBytes},
		{Name: "web", Type: columnar.TypeBytes},
		{Name: "ca_idx", Type: columnar.TypeInt64},
		{Name: "cert_delay", Type: columnar.TypeInt64},
		{Name: "retry_seed", Type: columnar.TypeInt64},
		{Name: "ns_change", Type: columnar.TypeBool},
		{Name: "ns_change_at", Type: columnar.TypeInt64},
		{Name: "alt_ns", Type: columnar.TypeBytes},
	}
}

func ghostsSchema() columnar.Schema {
	return columnar.Schema{
		{Name: "layout", Type: columnar.TypeInt64},
		{Name: "name", Type: columnar.TypeString},
		{Name: "tld", Type: columnar.TypeString},
		{Name: "created", Type: columnar.TypeInt64},
		{Name: "ca_idx", Type: columnar.TypeInt64},
		{Name: "token_at", Type: columnar.TypeInt64},
		{Name: "in_dzdb", Type: columnar.TypeBool},
	}
}

func seedSchema() columnar.Schema {
	return columnar.Schema{
		{Name: "layout", Type: columnar.TypeInt64},
		{Name: "domain", Type: columnar.TypeString},
		{Name: "at", Type: columnar.TypeInt64},
	}
}

func flagsSchema() columnar.Schema {
	return columnar.Schema{
		{Name: "layout", Type: columnar.TypeInt64},
		{Name: "domain", Type: columnar.TypeString},
		{Name: "list", Type: columnar.TypeString},
		{Name: "at", Type: columnar.TypeInt64},
	}
}

// Encoding helpers ----------------------------------------------------------

// appendStringList packs a []string onto dst as uvarint count +
// per-entry uvarint length + bytes, for TypeBytes cells (NS sets).
func appendStringList(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

func decodeStringList(b []byte) ([]string, error) {
	n, used := binary.Uvarint(b)
	if used <= 0 {
		return nil, io.ErrUnexpectedEOF
	}
	b = b[used:]
	if n == 0 {
		return nil, nil
	}
	if n > uint64(len(b)) {
		return nil, errors.New("worldsim: string list longer than cell")
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		l, used := binary.Uvarint(b)
		if used <= 0 {
			return nil, io.ErrUnexpectedEOF
		}
		b = b[used:]
		if uint64(len(b)) < l {
			return nil, io.ErrUnexpectedEOF
		}
		out = append(out, string(b[:l]))
		b = b[l:]
	}
	return out, nil
}

func nanoTime(ns int64) time.Time { return time.Unix(0, ns).UTC() }

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
	body := new(blockBuffer)
	if err := writeTable(w, body, "layouts", layoutsSchema(), func(cw *columnar.Writer) error {
		for i, l := range ls.Layouts {
			if err := cw.Append(columnar.Int(int64(i)), columnar.String(l.tld)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// The NS, address and alternate-NS cells of a row group are slices of
	// one arena, reused from the start once the group's Flush has encoded
	// them. Cells cut before the arena last grew keep the backing array
	// they were cut from, which nothing writes to again.
	var arena []byte
	if err := writeTable(w, body, "domains", domainsSchema(), func(cw *columnar.Writer) error {
		for i, l := range ls.Layouts {
			for j := range l.domains {
				r := &l.domains[j]
				d := r.d
				nsAt := len(arena)
				arena = appendStringList(arena, r.ns)
				webAt := len(arena)
				arena, _ = r.web.AppendBinary(arena) // never fails
				altAt := len(arena)
				arena = appendStringList(arena, r.altNS)
				if err := cw.Append(
					columnar.Int(int64(i)),
					columnar.String(d.Name), columnar.String(d.TLD), columnar.String(d.Registrar),
					columnar.Int(d.Created.UnixNano()), columnar.Int(int64(d.Lifetime)),
					columnar.Bool(d.FastDelete), columnar.Bool(d.Malicious),
					columnar.Int(int64(d.Reason)), columnar.Bool(d.CertAsked),
					columnar.String(d.DNSHost), columnar.String(d.WebHost),
					columnar.Bool(d.HasMX), columnar.Bool(d.HasSPF),
					columnar.Bytes(arena[nsAt:webAt]), columnar.Bytes(arena[webAt:altAt]),
					columnar.Int(int64(r.caIdx)), columnar.Int(int64(r.certDelay)),
					columnar.Int(int64(r.retrySeed)), columnar.Bool(r.nsChange),
					columnar.Int(int64(r.nsChangeAt)), columnar.Bytes(arena[altAt:]),
				); err != nil {
					return err
				}
			}
			// One row group per layout chunk, mirroring the compile
			// fan-out's unit structure.
			if err := cw.Flush(); err != nil {
				return err
			}
			arena = arena[:0]
		}
		return nil
	}); err != nil {
		return err
	}

	if err := writeTable(w, body, "ghosts", ghostsSchema(), func(cw *columnar.Writer) error {
		for i, l := range ls.Layouts {
			for j := range l.ghosts {
				g := &l.ghosts[j]
				if err := cw.Append(
					columnar.Int(int64(i)),
					columnar.String(g.d.Name), columnar.String(g.d.TLD),
					columnar.Int(g.d.Created.UnixNano()), columnar.Int(int64(g.caIdx)),
					columnar.Int(g.tokenAt.UnixNano()), columnar.Bool(g.inDZDB),
				); err != nil {
					return err
				}
			}
			if err := cw.Flush(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	feeds := func(pick func(l *Layout) []feedSeed) func(cw *columnar.Writer) error {
		return func(cw *columnar.Writer) error {
			for i, l := range ls.Layouts {
				for _, s := range pick(l) {
					if err := cw.Append(columnar.Int(int64(i)),
						columnar.String(s.domain), columnar.Int(s.at.UnixNano())); err != nil {
						return err
					}
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
		for i, l := range ls.Layouts {
			for _, f := range l.flags {
				if err := cw.Append(columnar.Int(int64(i)),
					columnar.String(f.Domain), columnar.String(f.List),
					columnar.Int(f.At.UnixNano())); err != nil {
					return err
				}
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
// so a save allocates blocks for its largest table only.
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
		tr := &tableReader{r: cr}
		name := string(nameBuf)
		switch name {
		case "layouts":
			err = ls.decodeLayouts(tr)
		case "domains":
			err = ls.decodeDomains(tr)
		case "ghosts":
			err = ls.decodeGhosts(tr)
		case "nod":
			err = ls.decodeFeed(tr, func(l *Layout, s feedSeed) { l.nod = append(l.nod, s) })
		case "dzdb":
			err = ls.decodeFeed(tr, func(l *Layout, s feedSeed) { l.dzdb = append(l.dzdb, s) })
		case "flags":
			err = ls.decodeFlags(tr)
		default:
			err = tr.drain()
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

// tableReader streams one table's row groups; next returns io.EOF at
// the end of the table.
type tableReader struct {
	r *columnar.Reader
}

func (t *tableReader) next() (*columnar.RowGroup, error) {
	g, err := t.r.Next()
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	if err != nil {
		return nil, io.EOF
	}
	return g, nil
}

// drain consumes an unknown table so the stream stays aligned for the
// tables that follow it.
func (t *tableReader) drain() error {
	for {
		if _, err := t.next(); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// eachRow replays a table's rows in order, resolving the standard
// leading "layout" column against ls.Layouts.
func (ls *LayoutSet) eachRow(t *tableReader, fn func(l *Layout, g *columnar.RowGroup, i int) error) error {
	for {
		g, err := t.next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		idxs := g.Ints["layout"]
		for i := 0; i < g.Rows; i++ {
			idx := idxs[i]
			if idx < 0 || idx >= int64(len(ls.Layouts)) {
				return fmt.Errorf("worldsim: layout index %d out of range", idx)
			}
			if err := fn(ls.Layouts[idx], g, i); err != nil {
				return err
			}
		}
	}
}

func (ls *LayoutSet) decodeLayouts(t *tableReader) error {
	for {
		g, err := t.next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		for i := 0; i < g.Rows; i++ {
			if g.Ints["idx"][i] != int64(len(ls.Layouts)) {
				return errors.New("worldsim: layout table out of order")
			}
			ls.Layouts = append(ls.Layouts, &Layout{tld: g.Strs["tld"][i]})
		}
	}
}

// nsIntern caches decoded nameserver lists by their raw encoding. The
// NS namespace is tiny (hosting providers × shard count), so virtually
// every list after the first few rows is a cache hit — the decode path's
// dominant allocation source collapses to a map probe.
type nsIntern map[string][]string

func (in nsIntern) list(b []byte) ([]string, error) {
	if v, ok := in[string(b)]; ok {
		return v, nil
	}
	v, err := decodeStringList(b)
	if err != nil {
		return nil, err
	}
	in[string(b)] = v
	return v, nil
}

func (ls *LayoutSet) decodeDomains(t *tableReader) error {
	intern := make(nsIntern)
	for {
		g, err := t.next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		var (
			idxs     = g.Ints["layout"]
			names    = g.Strs["name"]
			tlds     = g.Strs["tld"]
			regs     = g.Strs["registrar"]
			created  = g.Ints["created"]
			lifetime = g.Ints["lifetime"]
			fastDel  = g.Bools["fast_delete"]
			mal      = g.Bools["malicious"]
			reasons  = g.Ints["reason"]
			certAsk  = g.Bools["cert_asked"]
			dnsHosts = g.Strs["dns_host"]
			webHosts = g.Strs["web_host"]
			hasMX    = g.Bools["has_mx"]
			hasSPF   = g.Bools["has_spf"]
			nsCol    = g.Bytes["ns"]
			webCol   = g.Bytes["web"]
			caIdxs   = g.Ints["ca_idx"]
			certDel  = g.Ints["cert_delay"]
			retry    = g.Ints["retry_seed"]
			nsChg    = g.Bools["ns_change"]
			nsChgAt  = g.Ints["ns_change_at"]
			altCol   = g.Bytes["alt_ns"]
		)
		// One Domain and one regLayout slab per group, as compile lays
		// out a chunk, instead of two heap objects per row.
		ds := make([]Domain, g.Rows)
		rls := make([]regLayout, g.Rows)
		for i := 0; i < g.Rows; i++ {
			idx := idxs[i]
			if idx < 0 || idx >= int64(len(ls.Layouts)) {
				return fmt.Errorf("worldsim: layout index %d out of range", idx)
			}
			ds[i] = Domain{
				Name:       names[i],
				TLD:        tlds[i],
				Registrar:  regs[i],
				Created:    nanoTime(created[i]),
				Lifetime:   time.Duration(lifetime[i]),
				FastDelete: fastDel[i],
				Malicious:  mal[i],
				Reason:     registrar.RemovalReason(reasons[i]),
				CertAsked:  certAsk[i],
				DNSHost:    dnsHosts[i],
				WebHost:    webHosts[i],
				HasMX:      hasMX[i],
				HasSPF:     hasSPF[i],
			}
			ns, err := intern.list(nsCol[i])
			if err != nil {
				return err
			}
			altNS, err := intern.list(altCol[i])
			if err != nil {
				return err
			}
			var web netip.Addr
			if err := web.UnmarshalBinary(webCol[i]); err != nil {
				return err
			}
			rls[i] = regLayout{
				d: &ds[i], ns: ns, web: web,
				caIdx:      int(caIdxs[i]),
				certDelay:  time.Duration(certDel[i]),
				retrySeed:  uint64(retry[i]),
				nsChange:   nsChg[i],
				nsChangeAt: time.Duration(nsChgAt[i]),
				altNS:      altNS,
			}
		}
		forRuns(idxs[:g.Rows], func(start, end int) {
			l := ls.Layouts[idxs[start]]
			l.domains = adopt(l.domains, rls[start:end])
		})
	}
}

func (ls *LayoutSet) decodeGhosts(t *tableReader) error {
	for {
		g, err := t.next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		var (
			idxs    = g.Ints["layout"]
			names   = g.Strs["name"]
			tlds    = g.Strs["tld"]
			created = g.Ints["created"]
			caIdxs  = g.Ints["ca_idx"]
			tokenAt = g.Ints["token_at"]
			inDZDB  = g.Bools["in_dzdb"]
		)
		ds := make([]Domain, g.Rows)
		gls := make([]ghostLayout, g.Rows)
		for i := 0; i < g.Rows; i++ {
			idx := idxs[i]
			if idx < 0 || idx >= int64(len(ls.Layouts)) {
				return fmt.Errorf("worldsim: layout index %d out of range", idx)
			}
			ds[i] = Domain{
				Name:    names[i],
				TLD:     tlds[i],
				Created: nanoTime(created[i]),
				Ghost:   true,
			}
			gls[i] = ghostLayout{
				d:       &ds[i],
				caIdx:   int(caIdxs[i]),
				tokenAt: nanoTime(tokenAt[i]),
				inDZDB:  inDZDB[i],
			}
		}
		forRuns(idxs[:g.Rows], func(start, end int) {
			l := ls.Layouts[idxs[start]]
			l.ghosts = adopt(l.ghosts, gls[start:end])
		})
	}
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

func (ls *LayoutSet) decodeFeed(t *tableReader, add func(*Layout, feedSeed)) error {
	return ls.eachRow(t, func(l *Layout, g *columnar.RowGroup, i int) error {
		add(l, feedSeed{domain: g.Strs["domain"][i], at: nanoTime(g.Ints["at"][i])})
		return nil
	})
}

func (ls *LayoutSet) decodeFlags(t *tableReader) error {
	return ls.eachRow(t, func(l *Layout, g *columnar.RowGroup, i int) error {
		l.flags = append(l.flags, blocklist.Flag{
			Domain: g.Strs["domain"][i],
			List:   g.Strs["list"][i],
			At:     nanoTime(g.Ints["at"][i]),
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
