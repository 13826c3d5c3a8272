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
	cw := columnar.NewWriter(w, candidateSchema, 0)
	for _, c := range cands {
		var regUnix int64
		if !c.Registered.IsZero() {
			regUnix = c.Registered.Unix()
		}
		err := cw.Append(
			columnar.String(c.Domain),
			columnar.String(c.TLD),
			columnar.Int(c.SeenAt.Unix()),
			columnar.String(c.CTLog),
			columnar.String(c.Issuer),
			columnar.Int(int64(c.RDAPOutcome)),
			columnar.String(c.Registrar),
			columnar.Int(regUnix),
			columnar.Bool(c.Validated),
			columnar.Bool(c.Watched),
		)
		if err != nil {
			return fmt.Errorf("core: exporting %s: %w", c.Domain, err)
		}
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
		for i := 0; i < g.Rows; i++ {
			c := Candidate{
				Domain:      g.Strs["domain"][i],
				TLD:         g.Strs["tld"][i],
				SeenAt:      time.Unix(g.Ints["seen_unix"][i], 0).UTC(),
				CTLog:       g.Strs["ct_log"][i],
				Issuer:      g.Strs["issuer"][i],
				RDAPOutcome: RDAPOutcome(g.Ints["rdap_outcome"][i]),
				Registrar:   g.Strs["registrar"][i],
				Validated:   g.Bools["validated"][i],
				Watched:     g.Bools["watched"][i],
			}
			if ru := g.Ints["registered_unix"][i]; ru != 0 {
				c.Registered = time.Unix(ru, 0).UTC()
			}
			out = append(out, c)
		}
	}
}
