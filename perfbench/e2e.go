package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"xtalk/internal/serve"
)

// setupRepeats is how many times a run builds its daemons and seeds them;
// setup_s is the median, and the last set-up serves the measured phases.
const setupRepeats = 3

// fleet is the daemons one workload runs against.
type fleet struct{ ds []*daemon }

func (f *fleet) stop() {
	for _, d := range f.ds {
		d.stop()
	}
}

// startFleet starts the workload's daemons under dir/name: one for
// warm-zipf and cold-mix; for churn-fleet two on a ring, each with its own
// disk store.
func (b *bench) startFleet(name string) (*fleet, error) {
	n := 1
	if b.name == "churn-fleet" {
		n = 2
	}
	addrs := make([]string, n)
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, err
		}
		addrs[i] = a
	}
	f := &fleet{}
	for i, addr := range addrs {
		flags := append([]string(nil), b.w.DaemonFlags...)
		if n > 1 {
			var peers []string
			for k, p := range addrs {
				if k != i {
					peers = append(peers, p)
				}
			}
			flags = append(flags, "-self", addr, "-peers", strings.Join(peers, ","),
				"-store", filepath.Join(b.dir, name, fmt.Sprintf("store-%d", i)))
		}
		d, err := startDaemon(b.bin, b.dir, addr, flags)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.ds = append(f.ds, d)
	}
	for _, d := range f.ds {
		if err := d.waitReady(30 * time.Second); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// lanes returns the generator's connections: both to the one daemon, or one
// per daemon of a fleet.
func (f *fleet) lanes() []*lane {
	ls := make([]*lane, lanes)
	for i := range ls {
		ls[i] = newLane(f.ds[i%len(f.ds)].url(), nil)
	}
	return ls
}

// seed compiles every job once, job i on lane i mod lanes, each lane a
// closed loop. It returns the lanes holding the replies.
func (f *fleet) seed(jobs []job) ([]*lane, error) {
	ls := f.lanes()
	errs := make([]error, len(ls))
	var wg sync.WaitGroup
	for li := range ls {
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			for i := li; i < len(jobs); i += len(ls) {
				status, body, err := ls[li].do(jobs[i].body)
				if err == nil && status != 200 {
					err = fmt.Errorf("status %d: %s", status, body)
				}
				if err != nil {
					errs[li] = fmt.Errorf("set-up compile of %s on %s: %w", jobs[i].kind, jobs[i].device, err)
					return
				}
				ls[li].record(req{lane: li, job: i, body: jobs[i].body}, body)
			}
		}(li)
	}
	wg.Wait()
	for _, l := range ls {
		l.close()
	}
	return ls, errors.Join(errs...)
}

// setup builds the fleet and compiles jobs on it (cold-mix has none)
// setupRepeats times, once in a traced run, which reports no setup_s. It
// keeps the last fleet.
func (b *bench) setup(jobs []job) (*fleet, []*lane, float64, error) {
	var times []float64
	repeats := setupRepeats
	if b.tracing {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		f, err := b.startFleet(fmt.Sprintf("setup-%d", i))
		if err != nil {
			return nil, nil, 0, err
		}
		ls, err := f.seed(jobs)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			f.stop()
			return nil, nil, 0, err
		}
		if i == repeats-1 {
			return f, ls, median(times), nil
		}
		f.stop()
	}
	panic("unreachable")
}

// residents certifies set-up's replies and records each job's fingerprint
// and artifact digest, against which later replies are matched.
func residents(ls []*lane, n int, v *verdict) []resident {
	want := make([]resident, n)
	for _, l := range ls {
		for _, s := range l.seen {
			for _, vr := range s.variants {
				r, cost, err := certifyReply(s.reqBody, vr.body)
				if err != nil {
					v.fail(vr.count, fmt.Errorf("set-up reply: %w", err))
					continue
				}
				v.costs[r.Fingerprint] = cost
				want[s.job] = resident{fp: r.Fingerprint, digest: artifactDigest(r)}
			}
		}
	}
	return want
}

// sample is the outside-in view of the daemons over one measured phase:
// /stats before and after, CPU time from /proc.
type sample struct {
	before, after []serve.Stats
	cpu           time.Duration
	inflightMean  float64
}

func (f *fleet) snapshot() ([]serve.Stats, time.Duration, error) {
	var sts []serve.Stats
	var cpu time.Duration
	for _, d := range f.ds {
		st, err := d.stats()
		if err != nil {
			return nil, 0, err
		}
		c, err := cpuTime(d.cmd.Process.Pid)
		if err != nil {
			return nil, 0, err
		}
		sts = append(sts, st)
		cpu += c
	}
	return sts, cpu, nil
}

// measure runs fn between two snapshots. With monitor set it also polls
// the daemons' in-flight cold compiles every 50 ms over its own connection,
// for the traced run's serve.inflight_mean.
func (f *fleet) measure(monitor bool, fn func()) (*sample, error) {
	before, c0, err := f.snapshot()
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	polled := make(chan []float64, 1)
	go func() {
		var xs []float64
		defer func() { polled <- xs }()
		if !monitor {
			return
		}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				n := 0.0
				for _, d := range f.ds {
					if st, err := d.stats(); err == nil {
						n += float64(st.Inflight)
					}
				}
				xs = append(xs, n)
			}
		}
	}()
	fn()
	close(stop)
	inflight := <-polled
	after, c1, err := f.snapshot()
	if err != nil {
		return nil, err
	}
	s := &sample{before: before, after: after, cpu: c1 - c0}
	if len(inflight) > 0 {
		sum := 0.0
		for _, x := range inflight {
			sum += x
		}
		s.inflightMean = sum / float64(len(inflight))
	}
	return s, nil
}

// rssMB sums the daemons' peak resident sets.
func (f *fleet) rssMB() (float64, error) {
	total := 0.0
	for _, d := range f.ds {
		mb, err := peakRSSMB(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

func (b *bench) makeTrace() (*trace, error) {
	if b.name == "churn-fleet" {
		return churnTrace(b.seed, b.w.FreshShare)
	}
	return warmTrace(b.seed)
}

// openInputs draws the warm-up (5% of the run) and fixed-rate (45%)
// requests at the workload's fixed rate; the goodput search (50%) draws its
// own as it goes.
func (b *bench) openInputs(tr *trace) (warm, fixed []req, err error) {
	if warm, err = tr.next(int(b.w.RateRPS * b.secondsDur(0.05).Seconds())); err != nil {
		return nil, nil, err
	}
	fixed, err = tr.next(int(b.w.RateRPS * b.secondsDur(0.45).Seconds()))
	return warm, fixed, err
}

// openRun is everything one open-loop run measured.
type openRun struct {
	setupS  float64
	fixed   *phase
	steps   []*phase
	goodput float64
	sample  *sample
	rssMB   float64
	verdict *verdict
	loadCPU time.Duration
}

// runOpen sets up, replays a warm-up and the fixed-rate phase, searches for
// the goodput, and checks every reply.
func (b *bench) runOpen() (*openRun, error) {
	tr, err := b.makeTrace()
	if err != nil {
		return nil, err
	}
	f, setupLanes, setupS, err := b.setup(tr.jobs)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	o := &openRun{setupS: setupS, verdict: newVerdict()}
	want := residents(setupLanes, len(tr.jobs), o.verdict)

	rate := b.w.RateRPS
	warm, fixedReqs, err := b.openInputs(tr)
	if err != nil {
		return nil, err
	}
	digest := digestJobs(b.name, tr.jobs, append(append([]req(nil), warm...), fixedReqs...))
	logf("%s seed %d: trace digest %s", b.name, b.seed, digest)

	ls := f.lanes()
	defer func() {
		for _, l := range ls {
			l.close()
		}
	}()
	warmPhase := open(ls, warm, rate, 10*time.Second)
	cpu0 := selfCPU()
	o.sample, err = f.measure(b.tracing, func() { o.fixed = open(ls, fixedReqs, rate, 10*time.Second) })
	if err != nil {
		return nil, err
	}
	o.loadCPU = selfCPU() - cpu0
	o.steps = []*phase{warmPhase}
	if !b.tracing {
		const steps = 8
		var search []*phase
		o.goodput, search, err = goodput(ls, tr, o.fixed, o.fixed.capacity(), b.w.LimitMS, steps, b.secondsDur(0.5/steps))
		if err != nil {
			return nil, err
		}
		o.steps = append(o.steps, search...)
	}
	if o.rssMB, err = f.rssMB(); err != nil {
		return nil, err
	}
	o.verdict.checkLanes(ls, want)
	return o, nil
}

// counts totals the requests of a run's phases: attempted (sent), and
// failed (transport errors and refusals) plus failed checks. Requests the
// generator abandoned while overloading the daemons in the goodput search
// were never sent; they count against that step's latency instead.
func counts(v *verdict, ps ...*phase) (attempted, failed int) {
	for _, p := range ps {
		attempted += p.attempted - p.unsent
		failed += p.failed
	}
	return attempted, failed + v.failed
}

func (b *bench) openLoop() (*result, error) {
	o, err := b.runOpen()
	if err != nil {
		return nil, err
	}
	attempted, failed := counts(o.verdict, append([]*phase{o.fixed}, o.steps...)...)
	logf("fixed rate %.0f/s: %d requests, p50 %.3f ms, p99 %.3f ms (calm windows of %d), lag p99 %.3f ms; goodput %.0f/s",
		b.w.RateRPS, len(o.fixed.latencies), o.fixed.p50(), o.fixed.p99(), len(o.fixed.latencies)/windowSamples, o.fixed.lagP99(), o.goodput)
	p50s, p99s, steal := o.fixed.windows()
	logf("fixed-rate windows: p50 %.3f ms, p99 %.2f ms, steal %d ticks", p50s, p99s, steal)
	for _, s := range o.steps {
		logf("  step %.0f/s: p99 %.3f ms, failed %d, unsent %d", s.rate, s.p99(), s.failed, s.unsent)
	}
	d := deltas(o.sample)
	logf("fixed-phase /stats deltas: mem %.0f disk %.0f peer %.0f solves %.0f; memo %.2f resp %.2f cache %.2f store %.2f hit ratios; daemon CPU %.1f us/req",
		d["mem_hits"], d["disk_hits"], d["peer_hits"], d["solves"], d["memo_hit_ratio"], d["resp_hit_ratio"], d["cache_hit_ratio"], d["store_hit_ratio"],
		float64(o.sample.cpu.Microseconds())/float64(len(o.fixed.latencies)))
	if o.verdict.firstErr != nil {
		logf("output check failed: %v", o.verdict.firstErr)
	}
	if o.fixed.firstErr != nil {
		logf("request failed: %v", o.fixed.firstErr)
	}
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: endToEnd(endToEndValues{
			setupS:     o.setupS,
			p50:        o.fixed.p50(),
			p99:        o.fixed.p99(),
			throughput: float64(len(o.fixed.latencies)) / o.fixed.elapsed.Seconds(),
			goodput:    o.goodput,
			success:    1 - ratio(float64(failed), float64(attempted)),
			cost:       o.verdict.costGeomean(),
			rss:        o.rssMB,
		}),
	}, nil
}

// coldMinRounds is how many cold-mix rounds every run completes; they are
// also the circuits cost_geomean is taken over, so it does not depend on
// how many rounds fit in the measured time.
const coldMinRounds = 2

// coldRun is everything one cold-mix run measured.
type coldRun struct {
	setupS  float64
	p       *phase
	steal   int64 // machine steal time over the rounds, in ticks
	first   []job // the first coldMinRounds rounds
	rssMB   float64
	verdict *verdict
	sample  *sample
}

// runCold starts a fresh daemon and compiles whole rounds of distinct
// circuits with one closed-loop client until the measured time is up.
func (b *bench) runCold(minSeconds float64) (*coldRun, error) {
	f, _, setupS, err := b.setup(nil)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	c := &coldRun{setupS: setupS, p: &phase{}, verdict: newVerdict()}
	rounds := &coldRounds{g: newGen(b.seed)}
	l := f.lanes()[0]
	defer l.close()
	c.sample, err = f.measure(b.tracing, func() {
		start := time.Now()
		s0, _ := stealTicks() // an unreadable /proc/stat reads as no steal
		defer func() {
			s1, _ := stealTicks()
			c.steal = s1 - s0
		}()
		for r := 0; r < coldMinRounds || time.Since(start).Seconds() < minSeconds; r++ {
			var jobs []job
			if jobs, err = rounds.round(r); err != nil {
				return
			}
			if r < coldMinRounds {
				c.first = append(c.first, jobs...)
			}
			p := closed(l, jobs)
			c.p.attempted += p.attempted
			c.p.failed += p.failed
			c.p.latencies = append(c.p.latencies, p.latencies...)
			if c.p.firstErr == nil {
				c.p.firstErr = p.firstErr
			}
		}
		c.p.elapsed = time.Since(start)
	})
	if err != nil {
		return nil, err
	}
	logf("%s seed %d: trace digest %s", b.name, b.seed, digestJobs(b.name, c.first, nil))
	if c.rssMB, err = f.rssMB(); err != nil {
		return nil, err
	}
	c.verdict.checkLanes([]*lane{l}, nil)
	return c, nil
}

func (b *bench) coldMix() (*result, error) {
	c, err := b.runCold(b.seconds)
	if err != nil {
		return nil, err
	}
	var costs []float64
	for _, j := range c.first {
		if cost, ok := c.verdict.reqCosts[&j.body[0]]; ok {
			costs = append(costs, cost)
		}
	}
	attempted, failed := counts(c.verdict, c.p)
	within := 0
	for _, d := range c.p.latencies {
		if ms(d) <= b.w.LimitMS {
			within++
		}
	}
	logf("%d compiles in %.2f s: p50 %.3f ms, p99 %.3f ms, %d within %.0f ms; cost geomean over %d circuits",
		len(c.p.latencies), c.p.elapsed.Seconds(), c.p.p(0.5), c.p.p(0.99), within, b.w.LimitMS, len(costs))
	if c.verdict.firstErr != nil {
		logf("output check failed: %v", c.verdict.firstErr)
	}
	if c.p.firstErr != nil {
		logf("request failed: %v", c.p.firstErr)
	}
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: endToEnd(endToEndValues{
			setupS:     c.setupS,
			p50:        c.p.p(0.5),
			p99:        c.p.p(0.99),
			throughput: float64(len(c.p.latencies)) / c.p.elapsed.Seconds(),
			goodput:    float64(within) / c.p.elapsed.Seconds(),
			success:    1 - ratio(float64(failed), float64(attempted)),
			cost:       geomean(costs),
			rss:        c.rssMB,
		}),
	}, nil
}

type endToEndValues struct {
	setupS, p50, p99, throughput, goodput, success, cost, rss float64
}

func endToEnd(v endToEndValues) map[string]metric {
	return map[string]metric{
		"setup_s":        {v.setupS, "s"},
		"p50_ms":         {v.p50, "ms"},
		"p99_ms":         {v.p99, "ms"},
		"throughput_rps": {v.throughput, "1/s"},
		"goodput_rps":    {v.goodput, "1/s"},
		"success_rate":   {v.success, "ratio"},
		"cost_geomean":   {v.cost, "cost"},
		"rss_mb":         {v.rss, "MiB"},
	}
}

// deltas sums the daemons' /stats counters over a sample, so counters and
// hit ratios describe the measured phase, not the daemons' lifetimes.
func deltas(s *sample) map[string]float64 {
	d := map[string]float64{}
	add := func(k string, v int64) { d[k] += float64(v) }
	for i := range s.before {
		a, b := s.after[i], s.before[i]
		add("mem_hits", a.MemHits-b.MemHits)
		add("disk_hits", a.DiskHits-b.DiskHits)
		add("peer_hits", a.PeerHits-b.PeerHits)
		add("solves", a.Solves-b.Solves)
		add("collapsed", a.Collapsed-b.Collapsed)
		add("shed", a.Shed-b.Shed)
		add("peer_retries", a.PeerRetries-b.PeerRetries)
		add("peer_fallbacks", a.PeerFallbacks-b.PeerFallbacks)
		add("cache_evictions", a.Cache.Evictions-b.Cache.Evictions)
		add("resp_evictions", a.RespCache.Evictions-b.RespCache.Evictions)
		add("memo_hits", a.RespCache.MemoHits-b.RespCache.MemoHits)
		add("memo_misses", a.RespCache.MemoMisses-b.RespCache.MemoMisses)
		add("resp_hits", a.RespCache.Hits-b.RespCache.Hits)
		add("resp_misses", a.RespCache.Misses-b.RespCache.Misses)
		add("cache_hits", a.Cache.Hits-b.Cache.Hits)
		add("cache_misses", a.Cache.Misses-b.Cache.Misses)
		if a.Store != nil && b.Store != nil {
			add("store_evictions", a.Store.Evictions-b.Store.Evictions)
			add("store_writes", a.Store.Writes-b.Store.Writes)
			add("store_hits", a.Store.Hits-b.Store.Hits)
			add("store_misses", a.Store.Misses-b.Store.Misses)
		}
		for peer, c := range a.PeerConns {
			p := b.PeerConns[peer]
			add("peer_dialed", c.Dialed-p.Dialed)
			add("peer_reused", c.Reused-p.Reused)
		}
	}
	d["memo_hit_ratio"] = ratio(d["memo_hits"], d["memo_hits"]+d["memo_misses"])
	d["resp_hit_ratio"] = ratio(d["resp_hits"], d["resp_hits"]+d["resp_misses"])
	d["cache_hit_ratio"] = ratio(d["cache_hits"], d["cache_hits"]+d["cache_misses"])
	d["store_hit_ratio"] = ratio(d["store_hits"], d["store_hits"]+d["store_misses"])
	d["peer_conn_reuse_ratio"] = ratio(d["peer_reused"], d["peer_reused"]+d["peer_dialed"])
	return d
}
