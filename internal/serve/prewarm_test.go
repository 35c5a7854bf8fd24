package serve

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"xtalk/internal/certify"
	"xtalk/internal/device"
	"xtalk/internal/pipeline"
	"xtalk/internal/qasm"
)

// startOn serves s's handler on a pre-reserved listener.
func startOn(t *testing.T, s *Server, l net.Listener) {
	t.Helper()
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	t.Cleanup(ts.Close)
}

// waitPrewarm polls until at least want prewarm runs have completed and
// none is in flight.
func waitPrewarm(t *testing.T, s *Server, want int64) PrewarmStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		pw := s.PrewarmStats()
		if pw.Runs >= want && !pw.Active {
			return pw
		}
		if time.Now().After(deadline) {
			t.Fatalf("prewarm never completed %d runs: %+v", want, pw)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sourcesOwnedBy returns n distinct programs whose fingerprints the ring
// {selfAddr, peerAddr} assigns to owner.
func sourcesOwnedBy(t *testing.T, s *Server, owner string, n int) []string {
	t.Helper()
	eng, err := s.engine("poughkeepsie", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for i := 0; len(out) < n && i < 400; i++ {
		cand := fmt.Sprintf("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[20];\nh q[%d];\ncx q[%d],q[%d];\ncx q[%d],q[%d];\n",
			i%20, i%19, i%19+1, (i+7)%19, (i+7)%19+1)
		circ, err := eng.Materialize(&pipeline.Request{Source: cand})
		if err != nil {
			t.Fatal(err)
		}
		if s.ring.Owner(eng.Fingerprint(circ)) == owner {
			out = append(out, cand)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d sources owned by %s", len(out), n, owner)
	}
	return out
}

// TestPrewarmOnJoinServesWithoutSolver is the join-time warm-up contract: a
// freshly joined node pulls the fingerprints it owns from a peer's tiers
// over the bulk transfer endpoint and serves them from memory with zero
// cold solves; the prewarmed artifacts are bit-identical to the peer's
// copies on disk and pass independent certification.
func TestPrewarmOnJoinServesWithoutSolver(t *testing.T) {
	// Reserve both ring identities up front so each node can list the
	// other before it exists. B's socket must NOT be listening while it is
	// "down": a bound-but-unserved listener queues A's proxy attempts at
	// the TCP layer, and B would drain those stale compile requests the
	// moment it starts. Close it now and rebind the same port at join time
	// so A's seed-phase proxies fail fast with connection-refused instead.
	listeners := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	listeners[1].Close()

	// Node A first, alone on the ring with B configured but down. Requests
	// for B-owned fingerprints fail the proxy and fall back to local
	// compute, leaving B's slice of the working set in A's tiers — exactly
	// the state a joining B must pull from.
	dirA := t.TempDir()
	a, err := New(Config{
		Spec:        "poughkeepsie",
		Seed:        1,
		Self:        addrs[0],
		Peers:       []string{addrs[1]},
		StoreDir:    dirA,
		PeerRetries: -1,
		Pipeline:    pipeline.Config{Budget: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	startOn(t, a, listeners[0])

	const nOwned = 3
	sources := sourcesOwnedBy(t, a, addrs[1], nOwned)
	fps := make([]string, nOwned)
	for i, src := range sources {
		resp, err := a.Compile(context.Background(), CompileRequest{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Tier != TierCold {
			t.Fatalf("seed compile %d tier %q, want cold local fallback", i, resp.Tier)
		}
		fps[i] = resp.Fingerprint
	}

	// Node B joins with empty tiers. New() triggers the join prewarm, which
	// must fill B's memory and disk tiers from A in the background.
	lB, err := net.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	dirB := t.TempDir()
	b, err := New(Config{
		Spec:     "poughkeepsie",
		Seed:     1,
		Self:     addrs[1],
		Peers:    []string{addrs[0]},
		StoreDir: dirB,
		Pipeline: pipeline.Config{Budget: 5 * time.Second},
		SolveHook: func(context.Context) error {
			t.Error("joined node invoked the solver for a prewarmed fingerprint")
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	startOn(t, b, lB)

	pw := waitPrewarm(t, b, 1)
	if pw.Admitted < nOwned {
		t.Fatalf("prewarm admitted %d artifacts, want >= %d: %+v", pw.Admitted, nOwned, pw)
	}

	// Every seeded source must now be a local memory hit on B — no cold
	// solve, no proxy back to A — and byte-for-byte what A holds.
	for i, src := range sources {
		resp, err := b.Compile(context.Background(), CompileRequest{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Tier != TierMem || !resp.Cached {
			t.Fatalf("prewarmed request %d tier %q cached %v, want local mem hit", i, resp.Tier, resp.Cached)
		}
		if resp.Fingerprint != fps[i] {
			t.Fatalf("prewarmed fingerprint drifted: %s vs %s", resp.Fingerprint, fps[i])
		}
		rawA, okA := a.store.GetRaw(fps[i])
		rawB, okB := b.store.GetRaw(fps[i])
		if !okA || !okB || !bytes.Equal(rawA, rawB) {
			t.Fatalf("prewarmed artifact %d not bit-identical on disk (a=%v b=%v, %d vs %d bytes)",
				i, okA, okB, len(rawA), len(rawB))
		}

		// The transferred artifact must stand on its own: reconstruct its
		// QASM under hardware execution semantics and certify it against
		// the device model, independently of both daemons.
		circ, err := qasm.Parse(resp.QASM)
		if err != nil {
			t.Fatalf("prewarmed QASM does not parse: %v", err)
		}
		dev, err := device.NewFromSpecForDay(resp.Device, resp.Seed, resp.Day)
		if err != nil {
			t.Fatal(err)
		}
		rep := certify.Check(certify.ReconstructASAP(circ, dev), certify.Config{Omega: 0.5, Threshold: 3})
		if !rep.OK() {
			t.Fatalf("prewarmed artifact failed certification:\n%s", rep)
		}
	}
	if st := b.Stats(); st.Solves != 0 || st.MemHits != nOwned {
		t.Fatalf("joined node stats: solves=%d mem_hits=%d, want 0/%d", st.Solves, st.MemHits, nOwned)
	}
}

// TestPrewarmOnEpochFlip: an epoch flip re-triggers the prewarm engine (the
// owned slice of the new working set may already live on peers), and
// triggers during a run coalesce instead of stacking.
func TestPrewarmOnEpochFlip(t *testing.T) {
	listeners := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	servers := make([]*Server, 2)
	for i := range servers {
		s, err := New(Config{
			Spec:     "poughkeepsie",
			Seed:     1,
			Self:     addrs[i],
			Peers:    []string{addrs[1-i]},
			Pipeline: pipeline.Config{Budget: 5 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		servers[i] = s
		startOn(t, s, listeners[i])
	}
	waitPrewarm(t, servers[0], 1)

	if _, flipped, err := servers[0].AdvanceEpoch(Epoch{Seed: 1, Day: 1}); err != nil || !flipped {
		t.Fatalf("epoch flip: flipped=%v err=%v", flipped, err)
	}
	pw := waitPrewarm(t, servers[0], 2)
	if pw.LastReason != "epoch-flip" {
		t.Fatalf("last prewarm reason %q, want epoch-flip", pw.LastReason)
	}
}
