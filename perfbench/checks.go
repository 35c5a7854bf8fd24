package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"xtalk/internal/certify"
	"xtalk/internal/device"
	"xtalk/internal/qasm"
	"xtalk/internal/serve"
)

// Output checks. They run after the timed phases, on each distinct response
// body once; a failed body counts against every request that received it.

// costDrift is the relative amount by which a reply's claimed Eq. 17 cost
// may exceed the cost the certifier recomputes from the compiled program.
// The check is one-sided: the claimed cost is the engine schedule's, and the
// barriered program, replayed as soon as possible, realizes a longer
// schedule on most circuits, so its certified cost is higher (by up to ~37%
// on cold-mix). That gap is reported as certify.cost_gap, not counted as a
// failure; a claim above the realized cost is.
const costDrift = 0.05

// certOmega and certThreshold are the daemon's default crosstalk weight and
// high-crosstalk detection ratio, which every workload runs with.
const (
	certOmega     = 0.5
	certThreshold = 3
)

// resident is what set-up recorded for one job: the fingerprint it compiled
// to and a digest of everything in the reply that must not depend on which
// tier served it.
type resident struct {
	fp     string
	digest string
}

func artifactDigest(r *serve.CompileResponse) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%d|%s|%d|%d|%x|%x|%x\n%s", r.Fingerprint, r.Device, r.Seed, r.Day,
		r.Scheduler, r.NQubits, r.Gates, math.Float64bits(r.MakespanNS), math.Float64bits(r.Cost),
		math.Float64bits(r.SolverObjective), r.QASM)
	return hex.EncodeToString(h.Sum(nil))
}

// decodeReply parses a reply and checks it answers the request: same device
// triple, same tag.
func decodeReply(reqBody, body []byte) (*serve.CompileResponse, error) {
	var rq serve.CompileRequest
	if err := json.Unmarshal(reqBody, &rq); err != nil {
		return nil, fmt.Errorf("request body: %w", err)
	}
	var r serve.CompileResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("reply is not a compile response: %w", err)
	}
	if r.Fingerprint == "" || r.QASM == "" {
		return nil, fmt.Errorf("reply lacks fingerprint or program")
	}
	if r.Tag != rq.Tag {
		return nil, fmt.Errorf("reply tag %q, request tag %q", r.Tag, rq.Tag)
	}
	if rq.Seed != nil && r.Seed != *rq.Seed || rq.Day != nil && r.Day != *rq.Day {
		return nil, fmt.Errorf("reply is for seed %d day %d, request named seed %d day %d", r.Seed, r.Day, *rq.Seed, *rq.Day)
	}
	return &r, nil
}

// checkResident matches a reply for a resident job against set-up's record.
func checkResident(reqBody, body []byte, want resident) error {
	r, err := decodeReply(reqBody, body)
	if err != nil {
		return err
	}
	if r.Fingerprint != want.fp {
		return fmt.Errorf("fingerprint %.12s, set-up compiled %.12s", r.Fingerprint, want.fp)
	}
	if d := artifactDigest(r); d != want.digest {
		return fmt.Errorf("artifact %.12s differs from the one set-up compiled", r.Fingerprint)
	}
	return nil
}

// certifyReply certifies a compiled program against its named device with
// the independent checker and compares the claimed Eq. 17 cost with the
// recomputed one (see costDrift). It returns the recomputed cost.
func certifyReply(reqBody, body []byte) (*serve.CompileResponse, float64, error) {
	r, err := decodeReply(reqBody, body)
	if err != nil {
		return nil, 0, err
	}
	circ, err := qasm.Parse(r.QASM)
	if err != nil {
		return r, 0, fmt.Errorf("compiled program does not parse: %w", err)
	}
	dev, err := device.NewFromSpecForDay(r.Device, r.Seed, r.Day)
	if err != nil {
		return r, 0, fmt.Errorf("device %q: %w", r.Device, err)
	}
	rep := certify.Check(certify.ReconstructASAP(circ, dev), certify.Config{Omega: certOmega, Threshold: certThreshold})
	if !rep.OK() {
		return r, 0, rep.Err()
	}
	if r.Cost > rep.CostFloat*(1+costDrift) {
		return r, 0, fmt.Errorf("claimed cost %.6g above the certified cost %.6g", r.Cost, rep.CostFloat)
	}
	return r, rep.CostFloat, nil
}

// verdict totals the output checks of one run.
type verdict struct {
	failed   int
	firstErr error
	costs    map[string]float64 // certified cost per fingerprint
	reqCosts map[*byte]float64  // certified cost per first-time request body
}

func newVerdict() *verdict {
	return &verdict{costs: map[string]float64{}, reqCosts: map[*byte]float64{}}
}

func (v *verdict) fail(n int, err error) {
	v.failed += n
	if v.firstErr == nil {
		v.firstErr = err
	}
}

// checkLanes verifies every body the lanes recorded: replies for resident
// jobs against set-up's record, first-time compiles with the certifier.
func (v *verdict) checkLanes(ls []*lane, want []resident) {
	for _, l := range ls {
		for _, s := range l.seen {
			for _, vr := range s.variants {
				var err error
				if s.job >= 0 {
					err = checkResident(s.reqBody, vr.body, want[s.job])
				} else {
					var r *serve.CompileResponse
					var cost float64
					r, cost, err = certifyReply(s.reqBody, vr.body)
					if err == nil {
						v.costs[r.Fingerprint] = cost
						v.reqCosts[&s.reqBody[0]] = cost
					}
				}
				if err != nil {
					v.fail(vr.count, err)
				}
			}
		}
	}
}

// costGeomean is the geometric mean of the certified costs.
func (v *verdict) costGeomean() float64 {
	xs := make([]float64, 0, len(v.costs))
	for _, c := range v.costs {
		xs = append(xs, c)
	}
	return geomean(xs)
}
