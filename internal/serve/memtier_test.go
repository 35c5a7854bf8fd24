package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xtalk/internal/pipeline"
)

// TestOneEntryServesEveryTag: one circuit requested under many tags shares
// one memory-tier entry, and every tag's reply is exactly what json.Marshal
// writes for that response, sent as one Content-Length frame.
func TestOneEntryServesEveryTag(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	compileOK(t, s, CompileRequest{Source: testQASM})

	marshal := func(req CompileRequest) []byte {
		t.Helper()
		b, err := json.Marshal(compileOK(t, s, req))
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	for _, tag := range []string{"", "client-3", `a"b`, "<&>", "\u2028", "bad\xff\xfeutf8"} {
		req := CompileRequest{Source: testQASM, Tag: tag}
		if direct := compileOK(t, s, req); !bytes.Equal(direct.encoded, marshal(req)) {
			t.Fatalf("tag %q: encoded reply differs from json.Marshal:\n got %s\nwant %s", tag, direct.encoded, marshal(req))
		}

		// A JSON body carries the tag as valid UTF-8; the reply must match
		// what the server decoded.
		body := mustJSON(t, req)
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tag %q: HTTP %d: %s", tag, resp.StatusCode, reply)
		}
		if want := marshal(req); !bytes.Equal(reply, want) {
			t.Fatalf("tag %q: HTTP reply differs from json.Marshal:\n got %s\nwant %s", tag, reply, want)
		}
		if resp.ContentLength != int64(len(reply)) || len(resp.TransferEncoding) > 0 {
			t.Fatalf("tag %q: reply framed with Content-Length %d, Transfer-Encoding %v; want one %d-byte frame",
				tag, resp.ContentLength, resp.TransferEncoding, len(reply))
		}
		var got CompileResponse
		if err := json.Unmarshal(reply, &got); err != nil {
			t.Fatal(err)
		}
		if got.Tier != TierMem || !got.Cached {
			t.Fatalf("tag %q: tier %q cached %v, want a mem hit", tag, got.Tier, got.Cached)
		}
	}
	// Concurrent hits under different tags share the one reply and must
	// never write to it.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(tag string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := s.Compile(context.Background(), CompileRequest{Source: testQASM, Tag: tag})
				if err != nil || resp.Tag != tag || !bytes.Contains(resp.encoded, []byte(`"tag":"`+tag+`"`)) {
					t.Errorf("concurrent hit under tag %q: %v", tag, err)
					return
				}
			}
		}(fmt.Sprintf("g%d", g))
	}
	wg.Wait()
	st := s.Stats()
	if st.Cache.Entries != 1 || st.Solves != 1 {
		t.Fatalf("%d entries after %d solves, want 1 entry for 1 circuit", st.Cache.Entries, st.Solves)
	}
}

// TestPeerPromotionOnSecondHit: a non-owner proxies a fingerprint twice and
// keeps the second reply, so the third request is a local mem hit. The
// entry holds a reply but no artifact, so it is not transferable and
// counts as not held.
func TestPeerPromotionOnSecondHit(t *testing.T) {
	nodes := newFleet(t, 2)
	a, b := nodes[0], nodes[1]
	src := sourcesOwnedBy(t, a.srv, b.addr, 1)[0]

	first := postCompile(t, a.http.URL, CompileRequest{Source: src, Tag: "one"})
	if first.Tier != TierPeer || first.PeerTier != TierCold {
		t.Fatalf("first request tier %q peer_tier %q, want peer/cold", first.Tier, first.PeerTier)
	}
	if st := a.srv.Stats(); st.MemHits != 0 {
		t.Fatalf("first proxied reply served from the non-owner's memory: %+v", st)
	}
	second := postCompile(t, a.http.URL, CompileRequest{Source: src, Tag: "two"})
	if second.Tier != TierPeer || second.PeerTier != TierMem {
		t.Fatalf("second request tier %q peer_tier %q, want peer/mem", second.Tier, second.PeerTier)
	}
	third := postCompile(t, a.http.URL, CompileRequest{Source: src, Tag: "three"})
	if third.Tier != TierMem || !third.Cached || third.PeerTier != "" || third.Tag != "three" {
		t.Fatalf("third request tier %q cached %v peer_tier %q tag %q, want a local mem hit",
			third.Tier, third.Cached, third.PeerTier, third.Tag)
	}
	if third.Fingerprint != first.Fingerprint || third.QASM != first.QASM {
		t.Fatal("promoted reply diverged from the owner's artifact")
	}
	if st := a.srv.Stats(); st.Solves != 0 || st.PeerHits != 2 || st.MemHits != 1 {
		t.Fatalf("non-owner stats: solves=%d peer_hits=%d mem_hits=%d, want 0/2/1", st.Solves, st.PeerHits, st.MemHits)
	}

	fp := first.Fingerprint
	if _, ok := a.srv.cache.Get(fp); ok {
		t.Fatal("Cache.Get returned an artifact for a peer-replicated reply")
	}
	if _, ok := a.srv.heldFingerprints()[fp]; ok {
		t.Fatal("prewarm counts a peer-replicated reply as held")
	}
	resp, err := http.Get(a.http.URL + "/artifacts/index")
	if err != nil {
		t.Fatal(err)
	}
	var idx ArtifactIndex
	err = json.NewDecoder(resp.Body).Decode(&idx)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range idx.Fingerprints {
		if k == fp {
			t.Fatal("/artifacts/index advertises a peer-replicated reply")
		}
	}
}

// permutedSources returns n distinct program texts that differ only in the
// order of independent single-qubit gates, so they all canonicalize to one
// fingerprint.
func permutedSources(n int) []string {
	qubits := []int{0, 1, 2, 3, 4, 6}
	var out []string
	var permute func(k int)
	permute = func(k int) {
		if len(out) == n {
			return
		}
		if k == len(qubits) {
			var sb strings.Builder
			sb.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[20];\ncreg c[1];\n")
			for _, q := range qubits {
				fmt.Fprintf(&sb, "h q[%d];\n", q)
			}
			sb.WriteString("cx q[5],q[10];\nmeasure q[10] -> c[0];\n")
			out = append(out, sb.String())
			return
		}
		for i := k; i < len(qubits); i++ {
			qubits[k], qubits[i] = qubits[i], qubits[k]
			permute(k + 1)
			qubits[k], qubits[i] = qubits[i], qubits[k]
		}
	}
	permute(0)
	return out
}

// TestMemoBoundedByBudget: memo keys are charged to the memory budget, so
// endless distinct texts of one circuit never push the tier past its
// bound; evicting the entry drops its keys, and the next request re-parses
// to the same fingerprint.
func TestMemoBoundedByBudget(t *testing.T) {
	srcs := permutedSources(40)
	cfg := Config{Spec: "poughkeepsie", Seed: 1, Pipeline: pipeline.Config{Budget: 5 * time.Second}}
	probe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp := compileOK(t, probe, CompileRequest{Source: srcs[0]}).Fingerprint
	entry := probe.Stats().Cache.Bytes
	probe.Close()

	// Room for the entry and eight memo keys.
	cfg.CacheBytes, cfg.RespCacheBytes = entry+7*memoKeyCost, -1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	evicted := false
	for i, src := range srcs {
		before := s.Stats()
		if got := compileOK(t, s, CompileRequest{Source: src}).Fingerprint; got != fp {
			t.Fatalf("source %d fingerprint %.12s, want %.12s", i, got, fp)
		}
		st := s.Stats()
		if st.Cache.Bytes > st.Cache.MaxBytes {
			t.Fatalf("source %d: %d bytes held against a %d-byte budget", i, st.Cache.Bytes, st.Cache.MaxBytes)
		}
		if st.Cache.Evictions == before.Cache.Evictions || evicted {
			continue
		}
		evicted = true
		if st.RespCache.MemoEntries != 0 {
			t.Fatalf("evicted entry left %d memo keys behind", st.RespCache.MemoEntries)
		}
		again := compileOK(t, s, CompileRequest{Source: srcs[0]})
		after := s.Stats()
		if after.RespCache.MemoMisses != st.RespCache.MemoMisses+1 || again.Fingerprint != fp {
			t.Fatalf("after eviction: memo misses %d→%d, fingerprint %.12s; want a re-parse to %.12s",
				st.RespCache.MemoMisses, after.RespCache.MemoMisses, again.Fingerprint, fp)
		}
	}
	if !evicted {
		t.Fatal("memo keys never pressed the entry out of its budget")
	}
	if st := s.Stats(); st.RespCache.MemoEntries > 8 {
		t.Fatalf("%d memo keys held, budget fits 8", st.RespCache.MemoEntries)
	}
}
