package core

import (
	"fmt"
	"io"
	"time"

	"darkdns/internal/columnar"
)

// candidateSchema is the columnar layout for persisted candidates — the
// stand-in for the paper's Parquet objects ("we feed the results of each
// measurement into Kafka topics and store them in Parquet format in our
// object storage for longitudinal analysis").
var candidateSchema = columnar.Schema{
	{Name: "domain", Type: columnar.TypeString},
	{Name: "tld", Type: columnar.TypeString},
	{Name: "seen_unix", Type: columnar.TypeInt64},
	{Name: "ct_log", Type: columnar.TypeString},
	{Name: "issuer", Type: columnar.TypeString},
	{Name: "rdap_outcome", Type: columnar.TypeInt64},
	{Name: "registrar", Type: columnar.TypeString},
	{Name: "registered_unix", Type: columnar.TypeInt64},
	{Name: "validated", Type: columnar.TypeBool},
	{Name: "watched", Type: columnar.TypeBool},
}

// WriteCandidates persists cands to w in the columnar format, in their
// order: pass Pipeline.Candidates, or a copy already held, for one sorted
// by domain.
func WriteCandidates(w io.Writer, cands []Candidate) error {
	var (
		domain, tld, ctLog, issuer, registrar []string
		seen, outcome, registered             []int64
		validated, watched                    []bool
	)
	for _, c := range cands {
		var regUnix int64
		if !c.Registered.IsZero() {
			regUnix = c.Registered.Unix()
		}
		domain, tld = append(domain, c.Domain), append(tld, c.TLD)
		seen = append(seen, c.SeenAt.Unix())
		ctLog, issuer = append(ctLog, c.CTLog), append(issuer, c.Issuer)
		outcome = append(outcome, int64(c.RDAPOutcome))
		registrar, registered = append(registrar, c.Registrar), append(registered, regUnix)
		validated, watched = append(validated, c.Validated), append(watched, c.Watched)
	}
	cw := columnar.NewWriter(w, candidateSchema, 0)
	if err := cw.Write(&columnar.RowGroup{Rows: len(cands), Cols: []columnar.Values{
		{Strs: domain}, {Strs: tld}, {Ints: seen}, {Strs: ctLog}, {Strs: issuer},
		{Ints: outcome}, {Strs: registrar}, {Ints: registered}, {Bools: validated}, {Bools: watched},
	}}); err != nil {
		return fmt.Errorf("core: exporting candidates: %w", err)
	}
	return cw.Close()
}

// ReadCandidates loads candidates previously written by WriteCandidates.
func ReadCandidates(r io.Reader) ([]Candidate, error) {
	cr, err := columnar.NewReader(r)
	if err != nil {
		return nil, err
	}
	if got, want := cr.Schema().String(), candidateSchema.String(); got != want {
		return nil, fmt.Errorf("core: schema mismatch: %s", got)
	}
	var out []Candidate
	for {
		g, err := cr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		var (
			domain, tld           = g.Col("domain").Strs, g.Col("tld").Strs
			seen                  = g.Col("seen_unix").Ints
			ctLog, issuer         = g.Col("ct_log").Strs, g.Col("issuer").Strs
			outcome               = g.Col("rdap_outcome").Ints
			registrar, registered = g.Col("registrar").Strs, g.Col("registered_unix").Ints
			validated, watched    = g.Col("validated").Bools, g.Col("watched").Bools
		)
		for i := 0; i < g.Rows; i++ {
			c := Candidate{
				Domain:      domain[i],
				TLD:         tld[i],
				SeenAt:      time.Unix(seen[i], 0).UTC(),
				CTLog:       ctLog[i],
				Issuer:      issuer[i],
				RDAPOutcome: RDAPOutcome(outcome[i]),
				Registrar:   registrar[i],
				Validated:   validated[i],
				Watched:     watched[i],
			}
			if ru := registered[i]; ru != 0 {
				c.Registered = time.Unix(ru, 0).UTC()
			}
			out = append(out, c)
		}
	}
}
