package main

import (
	"context"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stallServer answers every request at once, except that requests arriving
// during [stallAt, stallAt+stall) after start are all held until the stall
// ends: the whole server pauses, as under a long GC or a blocked lock.
type stallServer struct {
	url   string
	conns atomic.Int64
	start time.Time
	stop  func()
}

func newStallServer(t *testing.T, stallAt, stall time.Duration) *stallServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stallServer{url: "http://" + ln.Addr().String() + "/compile", start: time.Now()}
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if stall > 0 {
				since := time.Since(s.start)
				if since >= stallAt && since < stallAt+stall {
					time.Sleep(stallAt + stall - since)
				}
			}
			_, _ = w.Write([]byte(`{}`))
		}),
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				s.conns.Add(1)
			}
		},
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	s.stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		wg.Wait()
	}
	return s
}

// constantReqs is n requests alternating over the lanes, all with one body.
func constantReqs(n int) []req {
	body := []byte(`{"source":"x"}`)
	out := make([]req, n)
	for i := range out {
		out[i] = req{lane: i % lanes, job: 0, body: body}
	}
	return out
}

// countSlow counts latencies at or above d.
func countSlow(p *phase, d time.Duration) int {
	n := 0
	for _, l := range p.latencies {
		if l >= d {
			n++
		}
	}
	return n
}

// TestOpenLoopCountsStall: a 300 ms server-wide stall must raise the
// latency of the requests due during it, not only of the two in flight
// when it began. A generator that waits for replies before sending (and
// times from the send) would report at most lanes slow requests.
func TestOpenLoopCountsStall(t *testing.T) {
	const rate = 400.0
	stallAt, stall := 400*time.Millisecond, 300*time.Millisecond
	s := newStallServer(t, stallAt, stall)
	defer s.stop()
	ls := []*lane{newLane(s.url, nil), newLane(s.url, nil)}
	defer ls[0].close()
	defer ls[1].close()
	p := open(ls, constantReqs(int(rate*1.2)), rate, 10*time.Second)
	if p.failed != 0 || p.unsent != 0 {
		t.Fatalf("failed %d, unsent %d: %v", p.failed, p.unsent, p.firstErr)
	}
	// Requests due in the first 200 ms of the stall wait at least 100 ms.
	slow := countSlow(p, 100*time.Millisecond)
	if want := int(rate * 0.2 * 0.75); slow < want {
		t.Fatalf("%d requests took >= 100 ms, want at least %d: the stall's wait on later requests was not counted", slow, want)
	}
	if p99 := p.p(0.99); p99 < 150 {
		t.Fatalf("p99 %.1f ms, want the stall (>= 150 ms) to show in the tail", p99)
	}

	// The same run without a stall has no slow requests.
	calm := newStallServer(t, 0, 0)
	defer calm.stop()
	ls = []*lane{newLane(calm.url, nil), newLane(calm.url, nil)}
	defer ls[0].close()
	defer ls[1].close()
	p = open(ls, constantReqs(int(rate*0.5)), rate, 10*time.Second)
	if slow := countSlow(p, 100*time.Millisecond); slow != 0 {
		t.Fatalf("%d requests took >= 100 ms without a stall", slow)
	}
}

// TestLanesOpenAtMostNprocConnections: however hard the generator is
// driven, it never holds more than one connection per lane.
func TestLanesOpenAtMostNprocConnections(t *testing.T) {
	s := newStallServer(t, 100*time.Millisecond, 50*time.Millisecond)
	defer s.stop()
	var dials atomic.Int64
	dial := func(network, addr string) (net.Conn, error) {
		dials.Add(1)
		return net.Dial(network, addr)
	}
	ls := []*lane{newLane(s.url, dial), newLane(s.url, dial)}
	defer ls[0].close()
	defer ls[1].close()
	// Far beyond what two connections serve in time: the lanes fall behind
	// and must queue, not open more connections.
	p := open(ls, constantReqs(4000), 20000, 10*time.Second)
	if p.failed != 0 {
		t.Fatalf("%d requests failed: %v", p.failed, p.firstErr)
	}
	if n := dials.Load(); n > lanes {
		t.Fatalf("generator dialed %d connections, want at most %d", n, lanes)
	}
	if n := s.conns.Load(); n > lanes {
		t.Fatalf("server saw %d connections, want at most %d", n, lanes)
	}
}

// TestGoodputFit: the goodput fit pools adjacent violators into a
// non-decreasing curve and interpolates its crossing in log-log space.
func TestGoodputFit(t *testing.T) {
	got := monotone([]float64{1, 3, 2, 4})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("monotone = %v, want %v", got, want)
		}
	}
	rates := []float64{100, 200, 400}
	fit := []float64{math.Log(1), math.Log(2), math.Log(8)}
	if r := crossing(rates, fit, 4); math.Abs(r-200*math.Sqrt2) > 1e-9 {
		t.Fatalf("crossing at %v, want %v", r, 200*math.Sqrt2)
	}
	if r := crossing(rates, fit, 100); r != 400 {
		t.Fatalf("never crossing: %v, want the highest rate 400", r)
	}
	if r := crossing(rates, fit, 0.5); r != 50 {
		t.Fatalf("crossing below the ladder: %v, want 50", r)
	}
}
