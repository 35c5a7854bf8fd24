package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"xtalk/internal/certify"
	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/pipeline"
	"xtalk/internal/qasm"
	"xtalk/internal/serve"
)

// replayLen is how many requests of an open-loop trace the traced replay
// sends to the twin.
const replayLen = 4000

// daemonPass is the untraced run against the real daemons that the traced
// run compares against: p50, /stats deltas, CPU and the generator's health.
type daemonPass struct {
	p50MS     float64
	completed int
	sent      int
	lagP99MS  float64
	stealFrac float64
	loadCPU   time.Duration
	sample    *sample
	// baseline holds cold-mix's untraced latencies (ms) of the circuits
	// the traced replay compiles again: the first round.
	baseline []float64
}

// traced runs the untraced daemon pass, the traced replay against the
// in-process twin, and the layer probes, and prints the per-layer metrics.
func (b *bench) traced() (*result, error) {
	pass, checks, err := b.daemonPass()
	if err != nil {
		return nil, err
	}
	t := newTracer()
	rep, hits, probeJobs, err := b.replayTwin(t)
	if err != nil {
		return nil, err
	}
	pr, err := b.probe(t, probeJobs, hits)
	if err != nil {
		return nil, err
	}
	m := layerMetrics(t, pass, rep, pr)
	spans := filepath.Join(b.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.name, b.seed))
	if err := t.write(spans); err != nil {
		return nil, err
	}
	logf("%d spans written to %s", len(t.spans), spans)
	logf("roof.warm_attained %.3f = roof.loopback_us %.1f / serve.http_mem_us %.1f",
		m["roof.warm_attained"].Value, m["roof.loopback_us"].Value, m["serve.http_mem_us"].Value)
	logf("roof.cold_attained %.3f = roof.solver_ms %.3f / pipeline.artifact_ms %.3f",
		m["roof.cold_attained"].Value, m["roof.solver_ms"].Value, m["pipeline.artifact_ms"].Value)
	logf("trace.coverage %.3f of untraced p50 %.3f ms; trace.overhead_frac %.3f; %d spans",
		m["trace.coverage"].Value, pass.p50MS, m["trace.overhead_frac"].Value, len(t.spans))
	if checks.firstErr != nil {
		logf("output check failed: %v", checks.firstErr)
	}
	return &result{
		Correct:   checks.failed == 0,
		Attempted: checks.attempted,
		Failed:    checks.failed,
		Metrics:   m,
	}, nil
}

// passChecks totals the daemon pass's requests and failures.
type passChecks struct {
	attempted, failed int
	firstErr          error
}

// daemonPass runs the workload's untraced measured phase once: the
// fixed-rate phase for open-loop workloads, the first cold-mix rounds.
func (b *bench) daemonPass() (*daemonPass, *passChecks, error) {
	if b.name == "cold-mix" {
		cpu0 := selfCPU()
		c, err := b.runCold(0)
		if err != nil {
			return nil, nil, err
		}
		att, failed := counts(c.verdict, c.p)
		var base []float64
		for _, d := range c.p.latencies[:min(len(c.p.latencies), len(coldDevices)*len(coldKinds))] {
			base = append(base, ms(d))
		}
		avail := c.p.elapsed.Seconds() * float64(runtime.NumCPU()) * float64(time.Second/clockTick)
		return &daemonPass{
			p50MS: c.p.p(0.5), completed: len(c.p.latencies), sent: c.p.attempted,
			stealFrac: ratio(float64(c.steal), avail), loadCPU: selfCPU() - cpu0, sample: c.sample, baseline: base,
		}, &passChecks{att, failed, firstErr(c.verdict.firstErr, c.p.firstErr)}, nil
	}
	o, err := b.runOpen()
	if err != nil {
		return nil, nil, err
	}
	att, failed := counts(o.verdict, append([]*phase{o.fixed}, o.steps...)...)
	return &daemonPass{
		p50MS: o.fixed.p50(), completed: len(o.fixed.latencies), sent: o.fixed.attempted - o.fixed.unsent,
		lagP99MS: o.fixed.lagP99(), stealFrac: o.fixed.stealFrac(), loadCPU: o.loadCPU, sample: o.sample,
	}, &passChecks{att, failed, firstErr(o.verdict.firstErr, o.fixed.firstErr)}, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replayTwin builds the twin, seeds it like set-up does (traced, so the
// pipeline layers are seen on every workload), replays the workload's
// requests, and returns the replay, some memory-tier exchanges for the
// loopback roof, and the distinct jobs the probes run on.
func (b *bench) replayTwin(t *tracer) ([]replayed, []exchange, []job, error) {
	cfg, err := b.twinConfig(t)
	if err != nil {
		return nil, nil, nil, err
	}
	count := 1
	if b.name == "churn-fleet" {
		count = 2
	}
	nodes, err := startNodes(count, cfg, filepath.Join(b.dir, "twin"))
	if err != nil {
		return nil, nil, nil, err
	}
	defer stopNodes(nodes)

	var reqs []req
	var jobs []job
	if b.name == "cold-mix" {
		rounds := &coldRounds{g: newGen(b.seed)}
		if jobs, err = rounds.round(0); err != nil {
			return nil, nil, nil, err
		}
		for _, j := range jobs {
			reqs = append(reqs, req{job: -1, body: j.body})
		}
	} else {
		tr, err := b.makeTrace()
		if err != nil {
			return nil, nil, nil, err
		}
		jobs = tr.jobs
		seedReqs := make([]req, len(jobs))
		for i, j := range jobs {
			seedReqs[i] = req{lane: i % lanes, job: i, body: j.body}
		}
		if _, _, err := replay(t, nodes, seedReqs, 1<<20, true); err != nil {
			return nil, nil, nil, err
		}
		if reqs, err = tr.next(replayLen); err != nil {
			return nil, nil, nil, err
		}
	}
	// Cold compiles differ from one another, so cold-mix traces them all and
	// takes its overhead baseline from the daemon pass on the same circuits.
	rep, hits, err := replay(t, nodes, reqs, 0, b.name != "cold-mix")
	if err != nil {
		return nil, nil, nil, err
	}
	// A second pass over the first requests gives memory-tier round trips
	// on every workload (cold-mix's replay has none) and Compile probes.
	again := reqs[:min(len(reqs), 64)]
	_, more, err := replay(t, nodes, append(append([]req(nil), again...), again...), 1<<21, true)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := compileProbe(t, nodes, again); err != nil {
		return nil, nil, nil, err
	}
	if len(jobs) > 48 {
		jobs = jobs[:48]
	}
	return rep, append(hits, more...), jobs, nil
}

// probeOut is what the layer probes measured outside the span tree.
type probeOut struct {
	costGaps []float64
}

// engines caches one traced pipeline per device and day.
type engines struct {
	t  *tracer
	by map[string]*pipeline.Pipeline
}

func (e *engines) get(dev string, day int) (*pipeline.Pipeline, error) {
	key := fmt.Sprintf("%s|%d", dev, day)
	if p, ok := e.by[key]; ok {
		return p, nil
	}
	p, err := pipeline.NewFromSpec(dev, calibSeed, day, daemonPipeline(tracedStages(e.t)))
	if err != nil {
		return nil, err
	}
	e.by[key] = p
	return p, nil
}

// probe calls each layer's public functions on the workload's distinct
// jobs, one root span per job, and runs the tier fixture and the roofs.
func (b *bench) probe(t *tracer, jobs []job, hits []exchange) (*probeOut, error) {
	t.setOn(true)
	defer t.setOn(false)
	ctx := context.Background()
	eng := &engines{t: t, by: map[string]*pipeline.Pipeline{}}
	out := &probeOut{}
	var arts []*pipeline.CompiledArtifact
	pool := core.NewSolvePool(runtime.GOMAXPROCS(0))
	for k, j := range jobs {
		p, err := eng.get(j.device, j.day)
		if err != nil {
			return nil, err
		}
		t.request(1<<22 + k)
		art, gap, err := probeJob(ctx, t, p, j, pool)
		if err != nil {
			return nil, err
		}
		out.costGaps = append(out.costGaps, gap)
		arts = append(arts, art)
	}
	if len(arts) == 0 {
		return nil, fmt.Errorf("no artifacts to probe")
	}
	cache := serve.NewCache(64 << 20)
	for _, a := range arts {
		cache.Put(a.Fingerprint, a)
	}
	for pass := 0; pass < 20; pass++ {
		for _, a := range arts {
			i := t.begin("cache.get")
			cache.Get(a.Fingerprint)
			t.end(i)
		}
	}
	st, err := serve.NewStore(filepath.Join(b.dir, "probe-store"), 0)
	if err != nil {
		return nil, err
	}
	traced := tracedStore{ArtifactStore: st, t: t}
	for _, a := range arts {
		if err := traced.Put(a.Fingerprint, a); err != nil {
			return nil, err
		}
	}
	for _, a := range arts {
		if _, ok := traced.Get(a.Fingerprint); !ok {
			return nil, fmt.Errorf("store lost %.12s", a.Fingerprint)
		}
	}
	if err := b.tierFixture(t, jobs, arts); err != nil {
		return nil, err
	}
	if err := loopbackRoof(t, hits); err != nil {
		return nil, err
	}
	return out, nil
}

// probeJob calls the parse, fingerprint, route, partition, artifact,
// scheduler-alone, codec and certify functions on one job under a "probe"
// root span. It returns the artifact and the certified / claimed cost - 1.
func probeJob(ctx context.Context, t *tracer, p *pipeline.Pipeline, j job, pool *core.SolvePool) (*pipeline.CompiledArtifact, float64, error) {
	root := t.begin("probe")
	defer t.end(root)
	i := t.begin("qasm.parse")
	circ, err := qasm.Parse(j.src)
	t.end(i)
	if err != nil {
		return nil, 0, fmt.Errorf("qasm.Parse: %w", err)
	}
	i = t.begin("pipeline.fingerprint")
	p.Fingerprint(circ)
	t.end(i)
	i = t.begin("pipeline.route")
	err = pipeline.RouteStage{}.Run(ctx, p.Compiler, &pipeline.Result{Circuit: circ})
	t.end(i)
	if err != nil {
		return nil, 0, fmt.Errorf("route stage: %w", err)
	}
	scheduled := circ.Canonical().DecomposeSwaps()
	i = t.begin("core.partition")
	core.PartitionCircuit(scheduled, p.Noise, 0)
	t.end(i)
	i = t.begin("pipeline.artifact")
	art, err := p.Compiler.Artifact(ctx, pipeline.Request{Source: j.src})
	t.end(i)
	if err != nil {
		return nil, 0, fmt.Errorf("Compiler.Artifact: %w", err)
	}
	xc := core.DefaultXtalkConfig()
	xc.Omega, xc.Timeout = certOmega, p.Config().Budget
	solver := core.NewPartitionedXtalkSched(p.Noise, xc, core.PartitionOpts{})
	solver.Pool = pool
	i = t.begin("roof.solver")
	_, err = core.ScheduleWithContext(ctx, solver, scheduled, p.Dev)
	t.end(i)
	if err != nil {
		return nil, 0, fmt.Errorf("scheduler alone: %w", err)
	}
	i = t.begin("codec.encode")
	enc := art.AppendBinary(nil)
	t.end(i)
	i = t.begin("codec.decode")
	_, err = pipeline.DecodeArtifact(enc)
	t.end(i)
	if err != nil {
		return nil, 0, fmt.Errorf("DecodeArtifact: %w", err)
	}
	compiled, err := qasm.Parse(art.QASM)
	if err != nil {
		return nil, 0, fmt.Errorf("compiled program: %w", err)
	}
	dev, err := device.NewFromSpecForDay(art.Device, art.Seed, art.Day)
	if err != nil {
		return nil, 0, err
	}
	i = t.begin("certify.check")
	rep := certify.Check(certify.ReconstructASAP(compiled, dev), certify.Config{Omega: certOmega, Threshold: certThreshold})
	t.end(i)
	return art, ratio(rep.CostFloat, art.Cost) - 1, nil
}

// tierFixture measures Server.Compile on the disk and peer tiers: a
// two-node ring with disk stores, a one-byte memory tier and no response
// tier. Each job is compiled on its owner, then served once from the
// owner's disk and once through the other node's peer hop.
func (b *bench) tierFixture(t *tracer, jobs []job, arts []*pipeline.CompiledArtifact) error {
	cfg, err := b.twinConfig(t)
	if err != nil {
		return err
	}
	cfg.CacheBytes, cfg.RespCacheBytes = 1, -1
	nodes, err := startNodes(2, cfg, filepath.Join(b.dir, "tiers"))
	if err != nil {
		return err
	}
	defer stopNodes(nodes)
	ring := serve.NewRing(nodes[0].addr, []string{nodes[1].addr})
	probed := 0
	for k, j := range jobs {
		// The fixture re-solves each job; budget-pinned ones would add
		// seconds without changing what a disk or peer hit costs.
		if arts[k].CompileTime > 250*time.Millisecond || probed == 24 {
			continue
		}
		probed++
		owner, other := nodes[0], nodes[1]
		if ring.Owner(arts[k].Fingerprint) != owner.addr {
			owner, other = other, owner
		}
		var cr serve.CompileRequest
		if err := json.Unmarshal(j.body, &cr); err != nil {
			return fmt.Errorf("request body: %w", err)
		}
		t.setOn(false)
		if _, err := owner.srv.Compile(context.Background(), cr); err != nil {
			return fmt.Errorf("tier fixture: %w", err)
		}
		t.setOn(true)
		for _, n := range []*node{owner, other} {
			i := t.begin("serve.compile")
			resp, err := n.srv.Compile(context.Background(), cr)
			t.end(i)
			if err != nil {
				return fmt.Errorf("tier fixture: %w", err)
			}
			t.setTier(i, resp.Tier)
		}
	}
	return nil
}

// loopbackRoof times a bare net/http handler on a loopback listener that
// reads the same requests and writes the same cached reply bytes as the
// memory-tier hits did, through the same kind of client: the least a warm
// hit can cost over HTTP.
func loopbackRoof(t *tracer, hits []exchange) error {
	if len(hits) == 0 {
		return fmt.Errorf("loopback roof: no memory-tier replies captured")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var next atomic.Int64
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // a failed read shows as a failed round trip
		body := hits[int(next.Add(1)-1)%len(hits)].resp
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body) // a failed write, likewise
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a timed-out shutdown still closes the listener
		<-done
	}()
	l := newLane("http://"+ln.Addr().String()+"/compile", nil)
	defer l.close()
	for k := 0; k < 2000; k++ {
		i := t.begin("roof.loopback")
		status, _, err := l.do(hits[k%len(hits)].req)
		t.end(i)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("loopback roof: status %d, %v", status, err)
		}
	}
	return nil
}

// layerMetrics assembles every per-layer metric.
func layerMetrics(t *tracer, pass *daemonPass, rep []replayed, pr *probeOut) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{Value: v, Unit: unit}
	}
	us, msU := time.Microsecond, time.Millisecond
	self := func(name, tier string, unit time.Duration) float64 { return medianOf(t.selfTimes(name, tier), unit) }

	put("serve.http_mem_us", self("serve.http", serve.TierMem, us), "us")
	put("serve.compile_mem_us", self("serve.compile", serve.TierMem, us), "us")
	put("serve.compile_disk_us", self("serve.compile", serve.TierDisk, us), "us")
	put("serve.compile_peer_us", self("serve.compile", serve.TierPeer, us), "us")
	put("serve.peer_hop_us", self("serve.peer_hop", "", us), "us")
	put("serve.cpu_us_per_req", ratio(float64(pass.sample.cpu.Microseconds()), float64(pass.completed)), "us")
	d := deltas(pass.sample)
	for _, k := range []string{"memo_hit_ratio", "resp_hit_ratio", "cache_hit_ratio", "store_hit_ratio", "peer_conn_reuse_ratio"} {
		put("serve."+k, d[k], "ratio")
	}
	for _, k := range []string{"mem_hits", "disk_hits", "peer_hits", "solves", "collapsed", "shed", "peer_retries",
		"peer_fallbacks", "cache_evictions", "resp_evictions", "store_evictions", "store_writes"} {
		put("serve."+k, d[k], "count")
	}
	put("serve.inflight_mean", pass.sample.inflightMean, "count")

	put("store.get_us", self("store.get", "", us), "us")
	put("store.put_us", self("store.put", "", us), "us")
	put("codec.decode_us", self("codec.decode", "", us), "us")
	put("codec.encode_us", self("codec.encode", "", us), "us")
	put("cache.get_ns", self("cache.get", "", time.Nanosecond), "ns")

	put("qasm.parse_us", self("qasm.parse", "", us), "us")
	put("pipeline.fingerprint_us", self("pipeline.fingerprint", "", us), "us")
	put("pipeline.route_us", self("pipeline.route", "", us), "us")
	put("pipeline.decompose_us", self("pipeline.decompose", "", us), "us")
	put("pipeline.schedule_ms", self("pipeline.schedule", "", msU), "ms")
	put("pipeline.barriers_us", self("pipeline.barriers", "", us), "us")
	// Artifact is reported inclusive of its stages, the base of the cold
	// roof; its overhead share is the part outside the schedule stage.
	put("pipeline.artifact_ms", medianOf(t.durations("pipeline.artifact"), msU), "ms")
	var artTotal, schedIn time.Duration
	for i := range t.spans {
		s := &t.spans[i]
		if s.name != "pipeline.artifact" {
			continue
		}
		artTotal += s.dur()
		for k := i + 1; k < len(t.spans) && t.spans[k].start < s.end; k++ {
			if t.spans[k].name == "pipeline.schedule" {
				schedIn += t.spans[k].dur()
			}
		}
	}
	put("pipeline.overhead_share", ratio(float64(artTotal-schedIn), float64(artTotal)), "ratio")

	put("core.partition_us", self("core.partition", "", us), "us")
	var windows, fallbacks, capped, decisions, conflicts, pivots, promotions float64
	var simplex, elapsed time.Duration
	peak := 0
	for _, r := range t.solve {
		windows += float64(r.stats.Windows)
		fallbacks += float64(r.stats.Fallbacks)
		decisions += float64(r.stats.Decisions)
		conflicts += float64(r.stats.Conflicts)
		pivots += float64(r.stats.Pivots)
		promotions += float64(r.stats.Promotions)
		simplex += r.stats.SimplexTime
		elapsed += r.elapsed
		peak = max(peak, r.stats.PeakRatBits)
		if r.elapsed >= daemonBudget*98/100 {
			capped++
		}
	}
	n := float64(len(t.solve))
	put("core.windows", ratio(windows, n), "count")
	put("core.fallbacks", ratio(fallbacks, n), "count")
	put("core.budget_capped", capped, "count")
	put("smt.simplex_share", ratio(float64(simplex), float64(elapsed)), "ratio")
	put("smt.pivots", ratio(pivots, n), "count")
	put("smt.promotions", ratio(promotions, n), "count")
	put("smt.promotions_per_pivot", ratio(promotions, pivots), "ratio")
	put("smt.peak_rat_bits", float64(peak), "bits")
	put("smt.decisions", ratio(decisions, n), "count")
	put("smt.conflicts", ratio(conflicts, n), "count")

	put("certify.check_ms", self("certify.check", "", msU), "ms")
	put("certify.cost_gap", median(pr.costGaps), "ratio")

	put("roof.loopback_us", self("roof.loopback", "", us), "us")
	put("roof.warm_attained", ratio(m["roof.loopback_us"].Value, m["serve.http_mem_us"].Value), "ratio")
	put("roof.solver_ms", self("roof.solver", "", msU), "ms")
	put("roof.cold_attained", ratio(m["roof.solver_ms"].Value, m["pipeline.artifact_ms"].Value), "ratio")

	put("loadgen.lag_p99_ms", pass.lagP99MS, "ms")
	put("loadgen.steal_frac", pass.stealFrac, "ratio")
	put("loadgen.sent", float64(pass.sent), "count")
	put("loadgen.cpu_s", pass.loadCPU.Seconds(), "s")

	var on, off, cover []float64
	for _, r := range rep {
		if !r.traced {
			off = append(off, ms(r.wall))
			continue
		}
		on = append(on, ms(r.wall))
		cover = append(cover, ms(t.spans[r.root].children))
	}
	if pass.baseline != nil {
		off = pass.baseline
	}
	put("trace.overhead_frac", ratio(median(on), median(off))-1, "ratio")
	put("trace.coverage", ratio(median(cover), pass.p50MS), "ratio")
	return m
}
