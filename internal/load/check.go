package load

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/kapi"
	"repro/internal/kasm"
	"repro/internal/server"
)

// streamBook detects lost or duplicated notary counters across the whole
// run: every observed (backend, worker, epoch, restores, counter) tuple
// must be unique. Duplicate detection is insensitive to response
// reordering between concurrent clients (unlike per-observation
// monotonicity), so it is exactly the invariant a fleet must keep
// through failover and migration.
type streamBook struct {
	mu     sync.Mutex
	seen   map[string]struct{}
	roots  map[string]string
	leaves map[string]string
	dups   int
}

func newStreamBook() *streamBook {
	return &streamBook{seen: map[string]struct{}{}, roots: map[string]string{}, leaves: map[string]string{}}
}

func (sb *streamBook) record(backend string, nr *server.NotaryResponse) {
	stream := fmt.Sprintf("%s/%d/%d/%d", backend, nr.Worker, nr.Epoch, nr.Restores)
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if nr.Batch != nil {
		// One counter tick covers a whole batch, so K receipts sharing a
		// counter are expected — but they must all share ONE Merkle root
		// (a second root on the same counter is a double-spent tick), and
		// within (stream, counter, root) each leaf index appears once.
		ck := fmt.Sprintf("%s#%d", stream, nr.Counter)
		if root, ok := sb.roots[ck]; ok && root != nr.Batch.Root {
			sb.dups++
			return
		}
		sb.roots[ck] = nr.Batch.Root
		// Each leaf index maps to exactly one leaf hash. With dedup,
		// several receipts legitimately share an index — but only when
		// they agree on the leaf AND the proof says it was coalesced; a
		// repeated index with a different leaf (or on a sole-owner leaf)
		// is still a double-spend.
		lk := fmt.Sprintf("%s@%d", ck, nr.Batch.LeafIndex)
		if leaf, ok := sb.leaves[lk]; ok {
			if leaf != nr.Batch.Leaf || nr.Batch.Coalesced <= 1 {
				sb.dups++
			}
		} else {
			sb.leaves[lk] = nr.Batch.Leaf
		}
		return
	}
	key := fmt.Sprintf("%s#%d", stream, nr.Counter)
	if _, dup := sb.seen[key]; dup {
		sb.dups++
	} else {
		sb.seen[key] = struct{}{}
	}
}

// tokenMix is a parsed tenant mix: a weighted set of admission tokens
// sampled per request. The token "-" means "send no tenant header".
type tokenMix struct {
	tokens []string
	cumsum []int
	total  int
}

func parseMix(s string) (*tokenMix, error) {
	if s == "" {
		return nil, nil
	}
	m := &tokenMix{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		tok, weight := part, 1
		if i := strings.LastIndex(part, ":"); i >= 0 {
			w, err := strconv.Atoi(part[i+1:])
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("bad -tenant-mix weight in %q", part)
			}
			tok, weight = part[:i], w
		}
		m.total += weight
		m.tokens = append(m.tokens, tok)
		m.cumsum = append(m.cumsum, m.total)
	}
	if m.total == 0 {
		return nil, fmt.Errorf("empty -tenant-mix %q", s)
	}
	return m, nil
}

func (m *tokenMix) pick(rng *rand.Rand) string {
	n := rng.Intn(m.total)
	for i, c := range m.cumsum {
		if n < c {
			if m.tokens[i] == "-" {
				return ""
			}
			return m.tokens[i]
		}
	}
	return ""
}

// verifyAttest checks an attest response end to end: the nonce echo, the
// nonce→data derivation, and the quote itself against the provisioned key.
func verifyAttest(body []byte, quoteKey [8]uint32, wantNonce string) error {
	var ar server.AttestResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		return err
	}
	if ar.Nonce != wantNonce {
		return fmt.Errorf("nonce echo %q != %q", ar.Nonce, wantNonce)
	}
	data, err := server.DecodeWords(ar.Data)
	if err != nil {
		return err
	}
	if data != server.NonceWords([]byte(wantNonce)) {
		return fmt.Errorf("data words are not SHA-256(nonce)")
	}
	meas, err := server.DecodeWords(ar.Measurement)
	if err != nil {
		return err
	}
	quote, err := server.DecodeWords(ar.Quote)
	if err != nil {
		return err
	}
	if !kasm.VerifyQuote(quoteKey, meas, data, quote) {
		return fmt.Errorf("quote does not verify under the quote key")
	}
	return nil
}

// crossingsSettle bounds how long readCrossings waits for every target's
// workers to be idle.
const crossingsSettle = 2 * time.Second

// readCrossings sums the enclave entries (KOM_SMC_ENTER + KOM_SMC_RESUME)
// over every distinct target's /v1/stats telemetry — over backend_stats
// when the target is a gateway. A server samples telemetry from idle
// workers only, and it releases a worker just after the reply leaves, so
// a sum is taken only once every server reports all of its live workers
// sampled. It polls for up to crossingsSettle; ok is false when the
// targets never settle or do not expose the counts.
func readCrossings(targets []string) (total uint64, ok bool) {
	deadline := time.Now().Add(crossingsSettle)
	for {
		total, settled, err := sampleCrossings(targets)
		if err != nil {
			return 0, false
		}
		if settled {
			return total, true
		}
		if time.Now().After(deadline) {
			return 0, false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sampleCrossings takes one crossing sum; settled is false when some
// server had a live worker checked out.
func sampleCrossings(targets []string) (total uint64, settled bool, err error) {
	seen := map[string]bool{}
	settled = true
	for _, base := range targets {
		if seen[base] {
			continue
		}
		seen[base] = true
		var st struct {
			server.StatsResponse
			BackendStats map[string]*server.StatsResponse `json:"backend_stats"`
		}
		if err := getJSON(base+"/v1/stats", &st); err != nil {
			return 0, false, err
		}
		servers := []*server.StatsResponse{&st.StatsResponse}
		if st.BackendStats != nil {
			servers = servers[:0]
			for _, b := range st.BackendStats {
				servers = append(servers, b)
			}
		}
		if len(servers) == 0 {
			return 0, false, fmt.Errorf("%s: no backend stats", base)
		}
		for _, s := range servers {
			if s == nil || s.Sampled != s.Pool.Live {
				settled = false
				continue
			}
			found := false
			for _, cs := range s.Telemetry.SMC {
				// Every monitor entry that hands the CPU to enclave code
				// is a world crossing — fresh entries and interrupt
				// resumes alike.
				if cs.Call == kapi.SMCEnter || cs.Call == kapi.SMCResume {
					total += cs.Count
					found = true
				}
			}
			if !found {
				return 0, false, fmt.Errorf("%s: no enclave-entry telemetry", base)
			}
		}
	}
	return total, settled, nil
}
