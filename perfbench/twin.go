package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"xtalk/internal/pipeline"
	"xtalk/internal/serve"
)

// The twin is the daemon's serving stack built in-process from the same
// flags, with spans recorded through its public hooks. The traced run
// replays the workload's inputs against it.

// tracedStage records a span around one default stage's Run; the schedule
// stage also records the SolveStats it returned.
type tracedStage struct {
	pipeline.Stage
	t *tracer
}

func (s tracedStage) Run(ctx context.Context, c *pipeline.Compiler, res *pipeline.Result) error {
	i := s.t.begin("pipeline." + s.Name())
	t0 := time.Now()
	err := s.Stage.Run(ctx, c, res)
	elapsed := time.Since(t0)
	s.t.end(i)
	if s.Name() == "schedule" && err == nil {
		s.t.recordSolve(solveRecord{stats: res.Solve, elapsed: elapsed})
	}
	return err
}

// tracedStore records spans around the disk tier's Get and Put.
type tracedStore struct {
	serve.ArtifactStore
	t *tracer
}

func (s tracedStore) Get(fp string) (*pipeline.CompiledArtifact, bool) {
	i := s.t.begin("store.get")
	defer s.t.end(i)
	return s.ArtifactStore.Get(fp)
}

func (s tracedStore) Put(fp string, art *pipeline.CompiledArtifact) error {
	i := s.t.begin("store.put")
	defer s.t.end(i)
	return s.ArtifactStore.Put(fp, art)
}

// tracedTransport records a span around each peer hop.
type tracedTransport struct {
	http.RoundTripper
	t *tracer
}

func (tr tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	i := tr.t.begin("serve.peer_hop")
	defer tr.t.end(i)
	return tr.RoundTripper.RoundTrip(r)
}

// daemonSettings are the xtalkd flags config.json sets for a workload.
type daemonSettings struct {
	device                   string
	cacheKB, respMB, storeMB int64
}

// parseDaemonFlags reads the flags the twin mirrors; others are ignored.
func parseDaemonFlags(flags []string) (daemonSettings, error) {
	var d daemonSettings
	fs := flag.NewFlagSet("xtalkd", flag.ContinueOnError)
	fs.StringVar(&d.device, "device", "heavyhex:27", "")
	fs.Int64Var(&d.cacheKB, "cache-kb", 0, "")
	fs.Int64Var(&d.respMB, "resp-cache-mb", serve.DefaultRespCacheBytes>>20, "")
	fs.Int64Var(&d.storeMB, "store-mb", 512, "")
	fs.Bool("quiet", false, "")
	return d, fs.Parse(flags)
}

// tracedStages wraps the daemon's default stage stack (parse, decompose,
// schedule, barriers).
func tracedStages(t *tracer) []pipeline.Stage {
	var out []pipeline.Stage
	for _, st := range []pipeline.Stage{pipeline.ParseStage{}, pipeline.DecomposeStage{}, pipeline.ScheduleStage{}, pipeline.BarrierStage{}} {
		out = append(out, tracedStage{Stage: st, t: t})
	}
	return out
}

// daemonBudget is xtalkd's default anytime solver budget.
const daemonBudget = 2 * time.Second

// daemonPipeline is xtalkd's default compile configuration.
func daemonPipeline(stages []pipeline.Stage) pipeline.Config {
	return pipeline.Config{
		Omega: certOmega, Budget: daemonBudget, Partition: true, DecomposeSwaps: true,
		Stages: stages,
	}
}

// node is one in-process server on a loopback listener.
type node struct {
	srv  *serve.Server
	http *http.Server
	addr string
	done chan struct{}
}

func (n *node) url() string { return "http://" + n.addr + "/compile" }

// startNodes builds count servers (a ring when count > 1) from cfg, each
// serving its Handler on a loopback listener.
func startNodes(count int, cfg serve.Config, storeDir string) ([]*node, error) {
	lns := make([]net.Listener, count)
	addrs := make([]string, count)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	var nodes []*node
	for i := range lns {
		c := cfg
		if count > 1 {
			c.Self = addrs[i]
			c.Peers = nil
			for k, a := range addrs {
				if k != i {
					c.Peers = append(c.Peers, a)
				}
			}
			c.StoreDir = filepath.Join(storeDir, fmt.Sprintf("store-%d", i))
		}
		srv, err := serve.New(c)
		if err == nil {
			n := &node{srv: srv, http: &http.Server{Handler: srv.Handler()}, addr: addrs[i], done: make(chan struct{})}
			go func(ln net.Listener) {
				defer close(n.done)
				_ = n.http.Serve(ln) // returns http.ErrServerClosed on stop
			}(lns[i])
			nodes = append(nodes, n)
			continue
		}
		for _, l := range lns[i:] {
			l.Close()
		}
		stopNodes(nodes)
		return nil, err
	}
	return nodes, nil
}

func stopNodes(nodes []*node) {
	for _, n := range nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = n.http.Shutdown(ctx) // a timed-out shutdown still closes the listener
		cancel()
		<-n.done
		n.srv.Close()
	}
}

// twinConfig mirrors the workload's daemon flags with tracing hooks.
func (b *bench) twinConfig(t *tracer) (serve.Config, error) {
	d, err := parseDaemonFlags(b.w.DaemonFlags)
	if err != nil {
		return serve.Config{}, err
	}
	cfg := serve.Config{
		Spec:           d.device,
		Seed:           1,
		Pipeline:       daemonPipeline(tracedStages(t)),
		CacheBytes:     d.cacheKB << 10,
		RespCacheBytes: d.respMB << 20,
		StoreBytes:     d.storeMB << 20,
		DisablePrewarm: true,
		WrapStore:      func(s serve.ArtifactStore) serve.ArtifactStore { return tracedStore{ArtifactStore: s, t: t} },
		PeerTransport:  tracedTransport{RoundTripper: serve.NewPeerTransport(0), t: t},
	}
	if d.respMB < 0 {
		cfg.RespCacheBytes = -1
	}
	return cfg, nil
}

// replayed is the outcome of one replayed request.
type replayed struct {
	traced bool
	wall   time.Duration
	root   int
}

// exchange is one request body and the memory-tier reply it drew.
type exchange struct{ req, resp []byte }

// replay sends each request over HTTP to its node, sequentially. With
// alternate set it traces every other request, so the untraced half gives
// the overhead baseline on the same state evolution; otherwise it traces
// all. It also returns some memory-tier exchanges.
func replay(t *tracer, nodes []*node, reqs []req, ridBase int, alternate bool) ([]replayed, []exchange, error) {
	ls := make([]*lane, len(nodes))
	for i, n := range nodes {
		ls[i] = newLane(n.url(), nil)
		defer ls[i].close()
	}
	defer t.setOn(false)
	out := make([]replayed, len(reqs))
	var warm []exchange
	for i, r := range reqs {
		on := !alternate || i%2 == 0
		t.setOn(on)
		t.request(ridBase + i)
		l := ls[r.lane%len(ls)]
		root := t.begin("request")
		hs := t.begin("serve.http")
		t0 := time.Now()
		status, body, err := l.do(r.body)
		wall := time.Since(t0)
		t.end(hs)
		t.end(root)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("replayed request %d: %w", i, err)
		}
		var tier struct {
			Tier string `json:"tier"`
		}
		if err := json.Unmarshal(body, &tier); err != nil {
			return nil, nil, fmt.Errorf("replayed request %d: %w", i, err)
		}
		t.setTier(hs, tier.Tier)
		out[i] = replayed{traced: on, wall: wall, root: root}
		if tier.Tier == serve.TierMem && len(warm) < 64 {
			warm = append(warm, exchange{req: r.body, resp: append([]byte(nil), body...)})
		}
	}
	return out, warm, nil
}

// compileProbe calls Server.Compile (no HTTP) for each request twice; the
// second call is a memory-tier hit, the first whatever the state gives.
func compileProbe(t *tracer, nodes []*node, reqs []req) error {
	t.setOn(true)
	defer t.setOn(false)
	for _, r := range reqs {
		var cr serve.CompileRequest
		if err := json.Unmarshal(r.body, &cr); err != nil {
			return err
		}
		for k := 0; k < 2; k++ {
			i := t.begin("serve.compile")
			resp, err := nodes[r.lane%len(nodes)].srv.Compile(context.Background(), cr)
			t.end(i)
			if err != nil {
				return fmt.Errorf("Server.Compile: %w", err)
			}
			t.setTier(i, resp.Tier)
		}
	}
	return nil
}
