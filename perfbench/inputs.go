package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"xtalk/internal/device"
	"xtalk/internal/qasm"
	"xtalk/internal/serve"
	"xtalk/internal/workloads"
)

// calibSeed is the device calibration seed every generated request names.
// The workload seed varies the circuits, their order and the arrival mix; the
// calibrations stay fixed so costs are comparable across seeds.
const calibSeed int64 = 1

// job is one distinct compile request: an OpenQASM source pinned to an
// explicit device, calibration seed and day (explicit, so the daemon's
// default epoch cannot skew the trace), plus the exact body a client sends.
type job struct {
	kind   string
	device string
	day    int
	src    string
	body   []byte
}

func newJob(kind, dev string, day int, src, tag string) job {
	s, d := calibSeed, day
	body, err := json.Marshal(serve.CompileRequest{Source: src, Tag: tag, Device: dev, Seed: &s, Day: &d})
	if err != nil {
		panic(err) // a plain struct of strings and ints always marshals
	}
	return job{kind: kind, device: dev, day: day, src: src, body: body}
}

// withTag returns the job as a different client would submit it: same
// circuit and fingerprint, its own echoed tag, so its own response entry.
func (j job) withTag(tag string) job { return newJob(j.kind, j.device, j.day, j.src, tag) }

// gen draws circuit variants from one RNG, never repeating a source on the
// same device and day (a repeat would be the same fingerprint).
type gen struct {
	rng      *rand.Rand
	topos    map[string]*device.Topology
	seen     map[string]bool
	variants map[string]int // jobs drawn so far per kind and device
}

func newGen(seed int64) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed)), topos: map[string]*device.Topology{},
		seen: map[string]bool{}, variants: map[string]int{}}
}

func (g *gen) topo(dev string) (*device.Topology, error) {
	if t, ok := g.topos[dev]; ok {
		return t, nil
	}
	d, err := device.NewFromSpecForDay(dev, calibSeed, 0)
	if err != nil {
		return nil, err
	}
	g.topos[dev] = d.Topo
	return d.Topo, nil
}

// job draws a fresh variant of kind on dev/day. Kinds: swap (the next qubit
// pair in a fixed order of distances and pairs), qaoa (random rotation
// angles on a 4-qubit chain), hs and hs-red (Hidden Shift with a random
// shift, the latter with the paper's redundant CNOTs), sup (the next
// supremacy-style random circuit on up to 12 qubits). The seed draws the
// QAOA angles and the shifts, which do not change how hard a circuit is to
// schedule; swap and sup circuits, which do, follow the variant count.
func (g *gen) job(kind, dev string, day int) (job, error) {
	topo, err := g.topo(dev)
	if err != nil {
		return job{}, err
	}
	variant := g.variants[kind+"|"+dev]
	g.variants[kind+"|"+dev]++
	for attempt := 0; attempt < 256; attempt++ {
		src, err := g.source(kind, topo, variant)
		if err != nil {
			return job{}, fmt.Errorf("%s on %s: %w", kind, dev, err)
		}
		key := fmt.Sprintf("%s|%d|%s", dev, day, src)
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		return newJob(kind, dev, day, src, ""), nil
	}
	return job{}, fmt.Errorf("%s on %s day %d: no unused variant left", kind, dev, day)
}

func (g *gen) source(kind string, topo *device.Topology, variant int) (string, error) {
	switch kind {
	case "swap":
		// SWAP cost grows with the pair's distance and swings with the
		// pair's calibration, so the pair is not drawn from the seed:
		// successive swap jobs on a device cycle through distances 1-4 and
		// walk the pairs at each distance in order. Seeds differ in the
		// other kinds and in the traffic, not in how costly the mix is.
		d := 1 + variant%4
		var pairs [][2]int
		for a := 0; a < topo.NQubits; a++ {
			for b := a + 1; b < topo.NQubits; b++ {
				if topo.Distance(a, b) == d {
					pairs = append(pairs, [2]int{a, b})
				}
			}
		}
		if len(pairs) == 0 {
			return "", fmt.Errorf("no qubit pair at distance %d", d)
		}
		pr := pairs[(variant/4)%len(pairs)]
		c, err := workloads.SwapCircuit(topo, pr[0], pr[1])
		if err != nil {
			return "", err
		}
		return qasm.Dump(c), nil
	case "qaoa":
		c, _, err := workloads.QAOAChainCircuit(topo, 4, g.rng.Int63())
		if err != nil {
			return "", err
		}
		return qasm.Dump(c), nil
	case "hs", "hs-red":
		chain, err := workloads.Chain(topo, 4)
		if err != nil {
			return "", err
		}
		c, _, err := workloads.HiddenShiftCircuit(topo, chain, uint(g.rng.Intn(16)), kind == "hs-red")
		if err != nil {
			return "", err
		}
		return qasm.Dump(c), nil
	case "sup":
		// Random circuits range from trivial to budget-bound solves, so, as
		// for swap, the variant count picks the circuit and not the seed.
		c, err := workloads.SupremacyCircuit(topo, min(topo.NQubits, 12), 40, int64(variant))
		if err != nil {
			return "", err
		}
		return qasm.Dump(c), nil
	}
	return "", fmt.Errorf("unknown circuit kind %q", kind)
}

// req is one request of an open-loop trace: the lane (connection) that
// sends it, the resident job it names (-1 for a first-time job) and the body.
type req struct {
	lane int
	job  int
	body []byte
}

// trace is a workload's generated inputs: the jobs set-up makes resident and
// a deterministic request stream continued step by step.
type trace struct {
	jobs []job
	next func(n int) ([]req, error)
}

// warmTrace: 48 fingerprints (swap, qaoa and plain Hidden Shift, 8 each on
// poughkeepsie and heavyhex:27), requested with Zipf(1.2) popularity over a
// seeded rank order, alternating over the two lanes of one daemon.
func warmTrace(seed int64) (*trace, error) {
	g := newGen(seed)
	var jobs []job
	for _, dev := range []string{"poughkeepsie", "heavyhex:27"} {
		for _, kind := range []string{"swap", "qaoa", "hs"} {
			for v := 0; v < 8; v++ {
				j, err := g.job(kind, dev, 0)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, j)
			}
		}
	}
	// Popularity ranks cycle through the six (device, kind) strata, and the
	// seed picks which variant of a stratum takes each of its ranks: seeds
	// then differ in which circuits are hot, not in what the hot replies
	// look like (a swap reply is a tenth the size of a qaoa one).
	const strata = 6
	perms := make([][]int, strata)
	for s := range perms {
		perms[s] = g.rng.Perm(len(jobs) / strata)
	}
	rank := make([]int, len(jobs))
	for r := range rank {
		s := r % strata
		rank[r] = s*len(jobs)/strata + perms[s][r/strata]
	}
	zipf := rand.NewZipf(g.rng, 1.2, 1, uint64(len(jobs)-1))
	sent := 0
	next := func(n int) ([]req, error) {
		out := make([]req, n)
		for i := range out {
			j := rank[zipf.Uint64()]
			out[i] = req{lane: sent % lanes, job: j, body: jobs[j].body}
			sent++
		}
		return out, nil
	}
	return &trace{jobs: jobs, next: next}, nil
}

// churnTags is how many client labels share each resident fingerprint in
// churn-fleet: every (fingerprint, tag) pair is its own response-tier entry,
// which is what makes the reply working set several times the tier's bound.
const churnTags = 8

// churnTrace: 160 resident poughkeepsie fingerprints (5 kinds x 16 variants
// x calibration days 0 and 1). Requests name a uniformly drawn resident
// fingerprint under one of churnTags client tags, sent to either daemon;
// freshShare of them instead name a first-time fingerprint, alternately a
// new calibration day and a new variant of a QAOA circuit. First-time
// fingerprints are all QAOA, whose poughkeepsie solves take a steady few
// milliseconds: with 3% of requests solving, p99 lies inside the solve
// latencies, and a mix of kinds would put it on the edge between two of
// them. Slow and uneven solves are cold-mix's subject.
func churnTrace(seed int64, freshShare float64) (*trace, error) {
	g := newGen(seed)
	var jobs []job
	for day := 0; day < 2; day++ {
		for _, kind := range []string{"swap", "qaoa", "hs", "hs-red", "sup"} {
			for v := 0; v < 16; v++ {
				j, err := g.job(kind, "poughkeepsie", day)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, j)
			}
		}
	}
	tagged := map[[2]int][]byte{}
	fresh := 0
	next := func(n int) ([]req, error) {
		out := make([]req, n)
		for i := range out {
			lane := g.rng.Intn(lanes)
			if g.rng.Float64() < freshShare {
				day := 0
				if fresh%2 == 0 {
					day = 2 + fresh/2
				}
				j, err := g.job("qaoa", "poughkeepsie", day)
				if err != nil {
					return nil, err
				}
				fresh++
				out[i] = req{lane: lane, job: -1, body: j.body}
				continue
			}
			k := [2]int{g.rng.Intn(len(jobs)), g.rng.Intn(churnTags)}
			body, ok := tagged[k]
			if !ok {
				body = jobs[k[0]].withTag(fmt.Sprintf("client-%d", k[1])).body
				tagged[k] = body
			}
			out[i] = req{lane: lane, job: k[0], body: body}
		}
		return out, nil
	}
	return &trace{jobs: jobs, next: next}, nil
}

// coldDevices and the per-round kind mix of cold-mix: one round is 32
// distinct circuits, two of each kind per device, with one plain and one
// redundant-CNOT Hidden Shift. The redundant ones on heavyhex:27 and
// linear:12 run into the anytime budget; they are in the mix on purpose.
var (
	coldDevices = []string{"poughkeepsie", "heavyhex:27", "linear:12", "grid:5x8"}
	coldKinds   = []string{"swap", "swap", "qaoa", "qaoa", "hs", "hs-red", "sup", "sup"}
)

// coldRounds generates rounds of cold-mix, each shuffled; round r uses
// calibration day r/8 so the variant space never runs out.
type coldRounds struct{ g *gen }

func (c *coldRounds) round(r int) ([]job, error) {
	var out []job
	for _, dev := range coldDevices {
		for _, kind := range coldKinds {
			j, err := c.g.job(kind, dev, r/8)
			if err != nil {
				return nil, err
			}
			out = append(out, j)
		}
	}
	c.g.rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out, nil
}

// digestJobs hashes a job list and a request stream: the same seed must give
// the same digest, so a run's inputs can be named by it.
func digestJobs(name string, jobs []job, reqs []req) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", name)
	for _, j := range jobs {
		h.Write(j.body)
		h.Write([]byte{'\n'})
	}
	for _, r := range reqs {
		fmt.Fprintf(h, "%d ", r.lane)
		h.Write(r.body)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
