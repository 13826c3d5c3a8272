package main

// Input generators. Everything a workload feeds the program under test is
// made here from (workload, seed) and nothing else: the same seed yields
// the same bytes (inputHash is printed in the run header), a different
// seed different ones. The code under test receives only the generated
// values below — never a workload name.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"strconv"
	"time"
)

// genRNG derives one generator stream per (seed, purpose), so adding a
// generator never perturbs the streams of the existing ones.
func genRNG(seed int64, purpose string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, purpose)))
	return rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(h[:8]) >> 1)))
}

// genNames returns n distinct second-level names under tld. The random
// stem varies with the seed; the base-36 index suffix guarantees
// distinctness without a dedup set.
func genNames(rng *rand.Rand, n int, tld string) []string {
	names := make([]string, n)
	for i := range names {
		stem := make([]byte, 6+rng.Intn(7))
		for j := range stem {
			stem[j] = byte('a' + rng.Intn(26))
		}
		names[i] = fmt.Sprintf("%s%s.%s", stem, strconv.FormatInt(int64(i), 36), tld)
	}
	return names
}

// hasher folds generated inputs into the digest printed in the header.
type hasher struct{ h hash.Hash }

func newHasher() hasher { return hasher{sha256.New()} }

func (h hasher) add(parts ...string) {
	for _, p := range parts {
		io.WriteString(h.h, p)
		h.h.Write([]byte{0})
	}
}

func (h hasher) String() string { return hex.EncodeToString(h.h.Sum(nil)[:8]) }

// inputDigest is the header digest of an input that is only a few values.
func inputDigest(parts ...string) string {
	h := newHasher()
	h.add(parts...)
	return h.String()
}

// feedInput is the publish side of both feed workloads: one key and one
// NRD-feed-shaped JSON value per entry (the shape core.Pipeline
// publishes), plus the open-loop schedule for feed_live.
type feedInput struct {
	keys   []string
	values [][]byte
	// burst entries are due together every period; entry i is due
	// (i/burst)*period after the clock starts.
	burst  int
	period time.Duration
	hash   string
}

func (in *feedInput) dueOffset(i int) time.Duration {
	return time.Duration(i/in.burst) * in.period
}

var feedLogs = []string{"argon-sim", "xenon-sim"}

func genFeedInput(seed int64, entries, burst int, period time.Duration) *feedInput {
	rng := genRNG(seed, "feed")
	in := &feedInput{keys: genNames(rng, entries, "shop"), values: make([][]byte, entries), burst: burst, period: period}
	seen := time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)
	h := newHasher()
	for i, k := range in.keys {
		seen = seen.Add(time.Duration(rng.Intn(90)) * time.Second)
		in.values[i] = []byte(fmt.Sprintf(`{"domain":%q,"seen":%q,"log":%q}`,
			k, seen.Format(time.RFC3339), feedLogs[rng.Intn(len(feedLogs))]))
		h.add(k, string(in.values[i]))
	}
	h.add(fmt.Sprint(burst, period))
	in.hash = h.String()
	return in
}

// wireInput is probe_wire's corpus: the registry contents, the truth
// table, and the query batches with their 48 fresh + 16 repeated shape.
type wireInput struct {
	tld string
	// names[i] is delegated to ns[i] when ns[i] != nil, absent otherwise.
	names []string
	ns    [][]string
	// prime batches fill the resolver cache before the timed region so
	// that every timed batch — the first included — finds its repeats
	// cached and the hit ratio is exactly repeat/(fresh+repeat).
	prime   [][]int
	batches [][]int // indexes into names
	hash    string
}

const (
	wireFresh    = 48 // names never asked before, per batch
	wireRepeat   = 16 // names drawn from the preceding wireLookback batches
	wireLookback = 4
)

func genWireInput(seed int64, batches int) *wireInput {
	rng := genRNG(seed, "wire")
	in := &wireInput{tld: "shop"}
	total := (batches + wireLookback) * wireFresh
	in.names = genNames(rng, total, in.tld)
	in.ns = make([][]string, total)
	h := newHasher()
	for i, name := range in.names {
		if rng.Intn(4) != 0 { // ¾ delegated, ¼ absent
			host := rng.Intn(64)
			in.ns[i] = []string{fmt.Sprintf("ns1.host%02d.net", host), fmt.Sprintf("ns2.host%02d.net", host)}
		}
		h.add(name, fmt.Sprint(in.ns[i]))
	}
	fresh := func(b int) []int { // batch b's fresh names, b counted from the first prime batch
		idx := make([]int, wireFresh)
		for j := range idx {
			idx[j] = b*wireFresh + j
		}
		return idx
	}
	for b := 0; b < wireLookback; b++ {
		in.prime = append(in.prime, fresh(b))
	}
	for b := wireLookback; b < batches+wireLookback; b++ {
		batch := fresh(b)
		// wireRepeat distinct picks from the preceding lookback window.
		window := wireLookback * wireFresh
		for _, p := range rng.Perm(window)[:wireRepeat] {
			batch = append(batch, (b-wireLookback)*wireFresh+p)
		}
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		in.batches = append(in.batches, batch)
		h.add(fmt.Sprint(batch))
	}
	in.hash = h.String()
	return in
}
