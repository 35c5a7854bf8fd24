package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xtalk/internal/pipeline"
)

// getStats fetches and decodes one node's /stats reply.
func getStats(t *testing.T, url string) Stats {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPeerRecordsBuiltFromRing: every ring peer has its breaker and
// connection counters from startup, before any request touches it, and the
// join prewarm's round trips are counted on the peer they went to.
func TestPeerRecordsBuiltFromRing(t *testing.T) {
	nodes := newFleet(t, 2)
	for i, n := range nodes {
		other := nodes[1-i].addr
		st := getStats(t, n.http.URL)
		if br, ok := st.Breakers[other]; !ok || br.State != BreakerClosed {
			t.Fatalf("node %d breakers %+v, want %s listed closed", i, st.Breakers, other)
		}
		if _, ok := st.PeerConns[other]; !ok || len(st.PeerConns) != 1 {
			t.Fatalf("node %d peer_conns %+v, want exactly %s listed", i, st.PeerConns, other)
		}
	}
	// nodes[1] joined second; its join prewarm asked nodes[0] for an index.
	waitPrewarm(t, nodes[1].srv, 1)
	c := getStats(t, nodes[1].http.URL).PeerConns[nodes[0].addr]
	if c.Dialed+c.Reused == 0 {
		t.Fatalf("joiner peer_conns %+v after its prewarm, want its round trips counted", c)
	}
}

// TestOversizedPeerReplyFallsBack: a proxied /compile reply past the 64 MiB
// body bound is a failed proxy, not a peer hit; the request is solved
// locally.
func TestOversizedPeerReplyFallsBack(t *testing.T) {
	chunk := strings.Repeat("x", 1<<20)
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write([]byte(`{"fingerprint":"f","tier":"mem","qasm":"`)); err != nil {
			return
		}
		for i := 0; i <= maxFrameBytes>>20; i++ {
			if _, err := w.Write([]byte(chunk)); err != nil {
				return
			}
		}
		_, _ = w.Write([]byte(`"}`))
	}))
	defer owner.Close()
	ownerAddr := strings.TrimPrefix(owner.URL, "http://")

	s, err := New(Config{
		Spec:           "poughkeepsie",
		Seed:           1,
		Self:           "127.0.0.1:0", // never dialed; just a distinct ring identity
		Peers:          []string{ownerAddr},
		PeerRetries:    -1,
		DisablePrewarm: true,
		Pipeline:       pipeline.Config{Budget: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	src := sourcesOwnedBy(t, s, ownerAddr, 1)[0]
	resp := compileOK(t, s, CompileRequest{Source: src})
	if resp.Tier != TierCold {
		t.Fatalf("oversized peer reply served from tier %q, want a cold local solve", resp.Tier)
	}
	if st := s.Stats(); st.PeerFallbacks != 1 || st.PeerHits != 0 || st.Solves != 1 {
		t.Fatalf("stats: peer_fallbacks=%d peer_hits=%d solves=%d, want 1/0/1", st.PeerFallbacks, st.PeerHits, st.Solves)
	}
}
