package main

import (
	"encoding/json"
	"os"
	"testing"
)

func loadConfig(t *testing.T) map[string]workloadConfig {
	t.Helper()
	raw, err := os.ReadFile("config.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg map[string]workloadConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// runSeconds is the measured time BENCHMARK.json runs with; the recorded
// trace digests are for it.
const runSeconds = 45

// digestFor generates a workload's inputs the way a run does and digests them.
func digestFor(t *testing.T, name string, w workloadConfig, seed int64) string {
	t.Helper()
	b := &bench{name: name, w: w, seed: seed, seconds: runSeconds}
	if name == "cold-mix" {
		rounds := &coldRounds{g: newGen(seed)}
		var first []job
		for r := 0; r < coldMinRounds; r++ {
			js, err := rounds.round(r)
			if err != nil {
				t.Fatal(err)
			}
			first = append(first, js...)
		}
		return digestJobs(name, first, nil)
	}
	tr, err := b.makeTrace()
	if err != nil {
		t.Fatal(err)
	}
	warm, fixed, err := b.openInputs(tr)
	if err != nil {
		t.Fatal(err)
	}
	return digestJobs(name, tr.jobs, append(warm, fixed...))
}

// TestTraceDigest: a seed names its inputs. The same seed yields the digest
// config.json records, twice over; another seed yields another trace.
func TestTraceDigest(t *testing.T) {
	for name, w := range loadConfig(t) {
		a := digestFor(t, name, w, w.Seed)
		if b := digestFor(t, name, w, w.Seed); a != b {
			t.Errorf("%s: seed %d gave digests %s and %s", name, w.Seed, a, b)
		}
		if a != w.TraceDigest {
			t.Errorf("%s: seed %d digest %s, config.json records %s", name, w.Seed, a, w.TraceDigest)
		}
		if c := digestFor(t, name, w, w.Seed+1); c == a {
			t.Errorf("%s: seeds %d and %d gave the same trace", name, w.Seed, w.Seed+1)
		}
	}
}

// TestJobsDistinct: every resident job and every cold-mix circuit of a run
// is a distinct request, so set-up and cold-mix solve each one.
func TestJobsDistinct(t *testing.T) {
	cfg := loadConfig(t)
	for _, name := range []string{"warm-zipf", "churn-fleet", "cold-mix"} {
		b := &bench{name: name, w: cfg[name], seed: 3, seconds: runSeconds}
		var jobs []job
		if name == "cold-mix" {
			rounds := &coldRounds{g: newGen(b.seed)}
			for r := 0; r < 12; r++ {
				js, err := rounds.round(r)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, js...)
			}
		} else {
			tr, err := b.makeTrace()
			if err != nil {
				t.Fatal(err)
			}
			jobs = tr.jobs
		}
		seen := map[string]bool{}
		for _, j := range jobs {
			if seen[string(j.body)] {
				t.Fatalf("%s: job %s on %s day %d repeats", name, j.kind, j.device, j.day)
			}
			seen[string(j.body)] = true
		}
	}
}
