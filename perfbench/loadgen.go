package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

// lanes is how many connections (and sending goroutines) the generator uses:
// nproc of the 2-core reference machine. Each lane owns one keep-alive
// connection, so the generator never holds more than lanes connections.
const lanes = 2

// lane is one connection to one daemon. Responses are compared on the lane
// against the bodies already seen for the same request, so the output checks
// later verify each distinct body once, off the clock.
type lane struct {
	url    string
	client *http.Client
	buf    bytes.Buffer
	seen   map[*byte]*seenBodies
}

// seenBodies collects the distinct response bodies one request body drew.
type seenBodies struct {
	reqBody  []byte
	job      int
	variants []*variant
}

type variant struct {
	body  []byte
	count int
}

// newLane builds a lane whose transport may hold exactly one connection.
// dial, when non-nil, replaces the default dialer (tests count connections).
func newLane(url string, dial func(network, addr string) (net.Conn, error)) *lane {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	if dial != nil {
		tr.Dial = dial
	}
	return &lane{url: url, client: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, seen: map[*byte]*seenBodies{}}
}

func (l *lane) close() { l.client.CloseIdleConnections() }

// do POSTs one body and returns the status and the response body, which
// stays valid only until the next call on the lane.
func (l *lane) do(body []byte) (int, []byte, error) {
	rq, err := http.NewRequest(http.MethodPost, l.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	rq.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(rq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	l.buf.Reset()
	_, err = l.buf.ReadFrom(resp.Body)
	return resp.StatusCode, l.buf.Bytes(), err
}

// record files a 200 response under its request for the later output check.
func (l *lane) record(r req, body []byte) {
	k := &r.body[0]
	s := l.seen[k]
	if s == nil {
		s = &seenBodies{reqBody: r.body, job: r.job}
		l.seen[k] = s
	}
	for _, v := range s.variants {
		if bytes.Equal(v.body, body) {
			v.count++
			return
		}
	}
	s.variants = append(s.variants, &variant{body: bytes.Clone(body), count: 1})
}

// phase is the outcome of one run of the generator.
type phase struct {
	rate      float64 // offered rate (open loop); 0 for a closed loop
	elapsed   time.Duration
	attempted int
	failed    int // transport errors and non-200 replies
	unsent    int // requests abandoned because the generator fell too far behind
	latencies []time.Duration
	lags      []time.Duration
	service   []time.Duration // round trips as sent
	dues      []time.Duration // due time of each latency sample
	steal     []stealSample   // machine steal time over the phase
	firstErr  error
}

// stealSample is the machine's cumulative steal time at an offset into a
// phase.
type stealSample struct {
	at    time.Duration
	ticks int64
}

// p returns the q-quantile latency in ms of the answered requests. Failed
// and unsent requests miss every latency limit: the goodput fit charges a
// step that has any, and success_rate counts them.
func (p *phase) p(q float64) float64 {
	lat := make([]float64, len(p.latencies))
	for i, d := range p.latencies {
		lat[i] = ms(d)
	}
	return quantile(lat, q)
}

// windowSamples is how many requests one p99 window holds at least, so
// each window's p99 has ten samples beyond it.
const windowSamples = 1000

// p50 and p99 are a phase's latency percentiles in ms over its calmer
// windows: the median, over the windows (see windows) in which the
// hypervisor stole the least CPU time from this machine, of each window's
// percentile. On a shared host steal comes in bursts that stall every
// request in flight, and how many windows a run's bursts hit varies from
// run to run; latency the daemon causes itself shows in the calm windows
// too. A phase without due times (a closed loop) is one window.
func (p *phase) p50() float64 {
	if len(p.dues) == 0 || p.rate == 0 {
		return p.p(0.5)
	}
	p50s, _, steal := p.windows()
	return calmMedian(p50s, steal)
}

func (p *phase) p99() float64 {
	if len(p.dues) == 0 || p.rate == 0 {
		return p.p(0.99)
	}
	_, p99s, steal := p.windows()
	return calmMedian(p99s, steal)
}

// windows cuts the phase into consecutive windows of due time holding about
// windowSamples requests each (a short phase is one window) and returns each
// window's p50 and p99 latency in ms and the machine's steal time over it in
// ticks.
func (p *phase) windows() (p50s, p99s []float64, steal []int64) {
	win := time.Duration(windowSamples / p.rate * float64(time.Second))
	var lat [][]float64
	for i, d := range p.latencies {
		w := int(p.dues[i] / win)
		for len(lat) <= w {
			lat = append(lat, nil)
		}
		lat[w] = append(lat[w], ms(d))
	}
	if n := len(lat); n > 1 && len(lat[n-1]) < windowSamples/2 {
		lat[n-2] = append(lat[n-2], lat[n-1]...)
		lat = lat[:n-1]
	}
	stealAt := func(d time.Duration) int64 {
		if len(p.steal) == 0 {
			return 0
		}
		v := p.steal[0].ticks
		for _, s := range p.steal {
			if s.at <= d {
				v = s.ticks
			}
		}
		return v
	}
	for w := range lat {
		p50s = append(p50s, quantile(lat[w], 0.5))
		p99s = append(p99s, quantile(lat[w], 0.99))
		end := time.Duration(w+1) * win
		if w == len(lat)-1 {
			end = p.elapsed
		}
		steal = append(steal, stealAt(end)-stealAt(time.Duration(w)*win))
	}
	return p50s, p99s, steal
}

// stealFrac is the share of the machine's CPU time the hypervisor stole
// during the phase.
func (p *phase) stealFrac() float64 {
	if len(p.steal) < 2 {
		return 0
	}
	ticks := p.steal[len(p.steal)-1].ticks - p.steal[0].ticks
	avail := p.elapsed.Seconds() * float64(runtime.NumCPU()) * float64(time.Second/clockTick)
	return ratio(float64(ticks), avail)
}

func (p *phase) lagP99() float64 {
	lag := make([]float64, len(p.lags))
	for i, d := range p.lags {
		lag[i] = ms(d)
	}
	return quantile(lag, 0.99)
}

// open replays reqs open-loop: request i is due at i/rate after the start,
// and each lane sends its own requests in order.
//
// Latency is counted from the due time on a virtual single-server queue per
// lane: a request starts when it is due or when the lane's previous request
// would have finished, whichever is later, and takes the service time the
// daemon actually took. A stall therefore delays every later request on the
// lane (coordinated omission is counted), while the generator's own timer
// slack (Go sleeps have ~1 ms granularity) is not charged to the daemon; the
// real slack is reported as lag. A lane more than abortLag behind stops.
func open(ls []*lane, reqs []req, rate float64, abortLag time.Duration) *phase {
	type laneOut struct {
		lat, lag, svc  []time.Duration
		due            []time.Duration
		failed, unsent int
		err            error
	}
	outs := make([]laneOut, len(ls))
	start := time.Now()
	stop := make(chan struct{})
	stealDone := make(chan []stealSample, 1)
	go func() {
		var out []stealSample
		defer func() { stealDone <- out }()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if n, err := stealTicks(); err == nil {
				out = append(out, stealSample{time.Since(start), n})
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	var wg sync.WaitGroup
	for li := range ls {
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			l, o := ls[li], &outs[li]
			var vdone time.Duration
			for i, r := range reqs {
				if r.lane != li {
					continue
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				now := time.Since(start)
				if now-due > abortLag {
					o.unsent++
					continue
				}
				if due > now {
					time.Sleep(due - now)
				}
				sent := time.Since(start)
				status, body, err := l.do(r.body)
				done := time.Since(start)
				vdone = max(due, vdone) + (done - sent)
				o.lag = append(o.lag, sent-due)
				o.svc = append(o.svc, done-sent)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
				}
				if err != nil {
					o.failed++
					if o.err == nil {
						o.err = err
					}
					continue
				}
				o.lat = append(o.lat, vdone-due)
				o.due = append(o.due, due)
				l.record(r, body)
			}
		}(li)
	}
	wg.Wait()
	close(stop)
	p := &phase{rate: rate, elapsed: time.Since(start), attempted: len(reqs), steal: <-stealDone}
	for _, o := range outs {
		p.latencies = append(p.latencies, o.lat...)
		p.lags = append(p.lags, o.lag...)
		p.service = append(p.service, o.svc...)
		p.dues = append(p.dues, o.due...)
		p.failed += o.failed
		p.unsent += o.unsent
		if p.firstErr == nil {
			p.firstErr = o.err
		}
	}
	return p
}

// closed sends jobs one at a time on one lane, each as soon as the previous
// reply arrived; latency is the round trip.
func closed(l *lane, jobs []job) *phase {
	p := &phase{}
	start := time.Now()
	for i := range jobs {
		j := &jobs[i]
		t0 := time.Now()
		status, body, err := l.do(j.body)
		d := time.Since(t0)
		p.attempted++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = err
			}
			continue
		}
		p.latencies = append(p.latencies, d)
		l.record(req{job: -1, body: j.body}, body)
	}
	p.elapsed = time.Since(start)
	return p
}

// capacity estimates the rate the lanes could sustain back to back: lanes
// over the median service time of a phase.
func (p *phase) capacity() float64 {
	svc := make([]float64, len(p.service))
	for i, d := range p.service {
		svc[i] = d.Seconds()
	}
	return ratio(float64(lanes), median(svc))
}

// goodput estimates the highest offered rate whose p99 stays within limitMS
// without a backlog. Half the steps form a coarse geometric ladder from 0.4x
// to 2x the capacity estimate capEst (and above the rate of phase fixed);
// the other half a fine ladder within 1.3x either side of where the coarse
// points cross the limit. Each step runs stepDur on freshly generated
// requests. All points, the fixed phase included, are fitted with a
// non-decreasing curve of log p99 over rate (failed or abandoned requests
// make a step miss by four times the limit), and the result is where that
// curve crosses the limit, interpolated between the rates around it. Unlike
// a bisection, one noisy step cannot steer the search away from the knee.
func goodput(ls []*lane, tr *trace, fixed *phase, capEst, limitMS float64, steps int, stepDur time.Duration) (float64, []*phase, error) {
	type point struct{ rate, y float64 }
	pts := []point{{fixed.rate, stepP99(fixed, limitMS)}}
	var phases []*phase
	estimate := func() float64 {
		sort.Slice(pts, func(i, j int) bool { return pts[i].rate < pts[j].rate })
		rates, ys := make([]float64, len(pts)), make([]float64, len(pts))
		for i, pt := range pts {
			rates[i], ys[i] = pt.rate, pt.y
		}
		return crossing(rates, monotone(ys), limitMS)
	}
	ladder := func(lo, hi float64, n int) error {
		for s := 0; s < n; s++ {
			rate := lo * math.Pow(hi/lo, float64(s)/float64(max(n-1, 1)))
			reqs, err := tr.next(int(rate * stepDur.Seconds()))
			if err != nil {
				return err
			}
			p := open(ls, reqs, rate, time.Second)
			phases = append(phases, p)
			pts = append(pts, point{rate, stepP99(p, limitMS)})
		}
		return nil
	}
	lo := max(0.4*capEst, 1.25*fixed.rate)
	if err := ladder(lo, max(2*capEst, 2*lo), steps/2); err != nil {
		return 0, phases, err
	}
	g := estimate()
	if err := ladder(g/1.3, g*1.3, steps-steps/2); err != nil {
		return 0, phases, err
	}
	return estimate(), phases, nil
}

// stepP99 is a step's p99 for the goodput fit, in log ms.
func stepP99(p *phase, limitMS float64) float64 {
	y := p.p99()
	if p.failed+p.unsent > 0 {
		y = max(y, 4*limitMS)
	}
	return math.Log(max(y, 1e-3))
}

// monotone is the least-squares non-decreasing fit of ys (pool adjacent
// violators, equal weights).
func monotone(ys []float64) []float64 {
	type block struct{ sum, n float64 }
	var bs []block
	for _, y := range ys {
		bs = append(bs, block{y, 1})
		for len(bs) > 1 && bs[len(bs)-2].sum/bs[len(bs)-2].n > bs[len(bs)-1].sum/bs[len(bs)-1].n {
			last := bs[len(bs)-1]
			bs = bs[:len(bs)-1]
			bs[len(bs)-1].sum += last.sum
			bs[len(bs)-1].n += last.n
		}
	}
	var out []float64
	for _, b := range bs {
		for i := 0; i < int(b.n); i++ {
			out = append(out, b.sum/b.n)
		}
	}
	return out
}

// crossing returns the rate at which the fitted log p99 curve fit (over
// ascending rates) reaches log limitMS, interpolated in log-log space: the
// highest rate when the curve never reaches it, and the lowest rate scaled
// down by the overshoot when it starts above it.
func crossing(rates, fit []float64, limitMS float64) float64 {
	ly := math.Log(limitMS)
	for i, y := range fit {
		if y <= ly {
			continue
		}
		if i == 0 {
			return rates[0] * limitMS / math.Exp(y)
		}
		x0, x1 := math.Log(rates[i-1]), math.Log(rates[i])
		if y == fit[i-1] {
			return rates[i-1]
		}
		return math.Exp(x0 + (ly-fit[i-1])/(y-fit[i-1])*(x1-x0))
	}
	return rates[len(rates)-1]
}
