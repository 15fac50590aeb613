package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// units draws n units from a fresh schedule.
func units(workload string, seed int64, n int) []unit {
	s := newSchedule(workload, seed)
	out := make([]unit, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range []string{"campaign", "feedback", "fleet"} {
		n := 3*poolSize(w) + 1
		a, b := units(w, 42, n), units(w, 42, n)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different schedules", w)
		}
		if reflect.DeepEqual(a, units(w, 43, n)) {
			t.Errorf("%s: seeds 42 and 43 gave the same schedule", w)
		}
		for i := range a {
			for _, s := range a[i].Seeds {
				if w == "fleet" {
					if !reflect.DeepEqual(fleetSpec(s), fleetSpec(s)) {
						t.Fatalf("fleet spec of seed %d not deterministic", s)
					}
				} else if fmt.Sprintf("%+v", localOptions(w, s)) != fmt.Sprintf("%+v", localOptions(w, s)) {
					t.Fatalf("%s options of seed %d not deterministic", w, s)
				}
			}
		}
	}
}

func TestEveryCycleCoversThePool(t *testing.T) {
	for _, w := range []string{"campaign", "feedback", "fleet"} {
		p := poolSize(w)
		us := units(w, 7, 2*p)
		for c := 0; c < 2; c++ {
			seen := make(map[int]bool)
			for _, u := range us[c*p : (c+1)*p] {
				seen[u.Index] = true
			}
			if len(seen) != p {
				t.Errorf("%s cycle %d visits %d of %d pool entries", w, c, len(seen), p)
			}
		}
	}
	if got := poolUnit("fleet", 3).Seeds; !reflect.DeepEqual(got, []int64{7, 8}) {
		t.Errorf("fleet pair 3 = %v, want tenants 7 and 8", got)
	}
}

func TestWorkloadShapes(t *testing.T) {
	c, f := localOptions("campaign", 3), localOptions("feedback", 3)
	if c.Feedback || c.TestBudget != 80 || c.Trials != 16 || c.FuzzBudget != 600 || c.CorpusCap != 150 || c.StateDir != "" {
		t.Errorf("campaign options %+v", c)
	}
	if !f.Feedback || f.FeedbackRounds != 4 || f.TestBudget != 160 || f.Trials != 24 {
		t.Errorf("feedback options %+v", f)
	}
	s := fleetSpec(5)
	if s.FuzzBudget != 3000 || s.TestBudget != 200 || s.Trials != 2 || s.Workers != 1 {
		t.Errorf("fleet spec %+v", s)
	}
}

// BENCHMARK.json at the repository root must declare exactly the metrics
// the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the program's list")
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's list")
	}
	for _, w := range spec.Workloads {
		if poolSize(w.Name) == 0 {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}
