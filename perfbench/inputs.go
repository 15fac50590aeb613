package main

import (
	"math/rand"
	"runtime"

	"snowboard/internal/core"
)

// Each workload draws its campaigns from a fixed pool of campaign seeds.
// The workload seed only orders the pool, cycle after cycle, so every run
// measures the same mix of campaigns (run-to-run spread reflects the code,
// not the draw) and every campaign seed repeats within a run, which is
// what the determinism check compares.
const (
	campaignPool = 16 // campaign seeds 1..16
	feedbackPool = 6  // campaign seeds 1..6
	fleetPool    = 8  // tenant pairs (1,2), (3,4), ..., (15,16)

	// warmSeed is the campaign seed of the untimed warm-up inside set-up:
	// the ROADMAP yardstick's pinned seed.
	warmSeed = 3

	fleetTenants = 2
)

// unit is one closed-loop step of a workload: a single campaign for
// campaign and feedback, a pair of concurrently submitted tenants for
// fleet.
type unit struct {
	Index int     // pool position
	Seeds []int64 // one campaign seed per tenant
}

func poolSize(workload string) int {
	switch workload {
	case "campaign":
		return campaignPool
	case "feedback":
		return feedbackPool
	case "fleet":
		return fleetPool
	}
	return 0
}

// poolUnit returns the pool entry at index i.
func poolUnit(workload string, i int) unit {
	if workload == "fleet" {
		return unit{Index: i, Seeds: []int64{int64(2*i + 1), int64(2*i + 2)}}
	}
	return unit{Index: i, Seeds: []int64{int64(i + 1)}}
}

// warmUnit is the unit each set-up runs untimed before the first timed one.
func warmUnit(workload string) unit {
	if workload == "fleet" {
		return poolUnit(workload, 0)
	}
	return poolUnit(workload, warmSeed-1)
}

// cycleOrder returns the pool order of cycle c under the workload seed: a
// permutation drawn from a generator seeded by (seed, c) alone.
func cycleOrder(workload string, seed int64, c int) []int {
	rng := rand.New(rand.NewSource(mix(seed, uint64(c))))
	return rng.Perm(poolSize(workload))
}

// schedule yields the units of a run in order, one cycle after another.
type schedule struct {
	workload string
	seed     int64
	cycle    int
	order    []int
}

func newSchedule(workload string, seed int64) *schedule {
	return &schedule{workload: workload, seed: seed}
}

func (s *schedule) next() unit {
	if len(s.order) == 0 {
		s.order = cycleOrder(s.workload, s.seed, s.cycle)
		s.cycle++
	}
	i := s.order[0]
	s.order = s.order[1:]
	return poolUnit(s.workload, i)
}

// mix is the splitmix64 finalizer over (seed, i).
func mix(seed int64, i uint64) int64 {
	x := uint64(seed) + (i+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// localOptions is the one-shot or feedback campaign the local workloads
// run in-process through core.Run: kernel 5.12-rc3, S-INS-PAIR, one worker
// per CPU, no artifact store.
func localOptions(workload string, seed int64) core.Options {
	o := core.DefaultOptions()
	o.Seed = seed
	o.FuzzBudget = 600
	o.CorpusCap = 150
	o.TestBudget = 80
	o.Trials = 16
	o.Workers = runtime.NumCPU()
	if workload == "feedback" {
		o.Feedback = true
		o.FeedbackRounds = 4
		o.TestBudget = 160
		o.Trials = 24
	}
	return o
}

// fleetSpec is one tenant of the fleet workload, as submitted to the
// control plane.
func fleetSpec(seed int64) core.CampaignSpec {
	return core.CampaignSpec{
		Version:    "5.12-rc3",
		Method:     "S-INS-PAIR",
		Seed:       seed,
		FuzzBudget: 3000,
		CorpusCap:  150,
		TestBudget: 200,
		Trials:     2,
		Workers:    1,
	}
}
