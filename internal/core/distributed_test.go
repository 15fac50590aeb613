package core

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"snowboard/internal/queue"
	"snowboard/internal/sched"
)

// runCampaign drains every queued test through the shared job executor
// (ExecuteJob, the path every queue transport takes). With crashFirst the
// worker abandons its first lease without acking — the crashed-machine
// scenario — and relies on the lease reaper to redeliver the job to the
// same loop.
func runCampaign(t *testing.T, p *Pipeline, opts Options, tests []sched.ConcurrentTest, crashFirst bool) (DistSummary, queue.Stats) {
	t.Helper()
	q := queue.NewWithOptions(queue.Options{
		Name:         "core-test",
		LeaseTimeout: 200 * time.Millisecond,
		MaxAttempts:  5,
	})
	defer q.Close()
	if err := PushTests(q, tests, "", ""); err != nil {
		t.Fatal(err)
	}

	lsr := localLeaser{q: q}
	x := NewJobExplorer(p.Env.Clone(), opts.Trials)
	crashed := false
	deadline := time.Now().Add(30 * time.Second)
	for {
		ls, err := lsr.Lease()
		if errors.Is(err, queue.ErrEmpty) {
			st := q.Stats()
			if st.Pending == 0 && st.Leased == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("campaign never settled: stats = %+v", st)
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if crashFirst && !crashed {
			// Walk away holding the lease: the job must come back.
			crashed = true
			continue
		}
		// ExecuteJob keeps the lease alive while it explores, so the only
		// redelivery in this campaign is the deliberately abandoned lease
		// above.
		if _, err := ExecuteJob(lsr, x, ls, "core-test", nil); err != nil {
			t.Fatal(err)
		}
	}
	return AggregateResults(len(tests), q.Results(), q.DeadLetters()), q.Stats()
}

// TestCrashRedeliveryByteIdenticalReport is the end-to-end lost-job
// regression test: a worker that dies holding a lease must not lose the job,
// and because per-job seeds derive from the job ID, the campaign summary
// after redelivery must be byte-for-byte identical to a crash-free run.
func TestCrashRedeliveryByteIdenticalReport(t *testing.T) {
	opts := DefaultOptions()
	opts.Seed = 3
	opts.FuzzBudget = 150
	opts.CorpusCap = 40
	opts.Trials = 4

	p := NewPipeline(opts)
	r := p.NewReport()
	p.BuildCorpus(r)
	if err := p.ProfileAll(r); err != nil {
		t.Fatal(err)
	}
	p.IdentifyPMCs(r)
	tests := p.GenerateTests(r, 6)
	if len(tests) == 0 {
		t.Fatal("no concurrent tests generated")
	}

	baseline, baseStats := runCampaign(t, p, opts, tests, false)
	crashy, crashStats := runCampaign(t, p, opts, tests, true)

	if baseStats.Redelivered != 0 {
		t.Errorf("baseline redeliveries = %d, want 0", baseStats.Redelivered)
	}
	if crashStats.Redelivered != 1 {
		t.Errorf("crashy redeliveries = %d, want 1", crashStats.Redelivered)
	}
	if crashy.Lost() || len(crashy.DeadJobs) != 0 {
		t.Fatalf("crashy campaign lost jobs: %+v", crashy)
	}
	if crashy.Reported != len(tests) {
		t.Fatalf("crashy reported %d/%d jobs", crashy.Reported, len(tests))
	}

	want, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(crashy)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatalf("campaign summary changed under worker crash:\nbaseline: %s\ncrashy:   %s", want, got)
	}

	// The summary rides the campaign report as its distributed section.
	r.Distributed = &crashy
	if _, err := json.Marshal(r); err != nil {
		t.Fatalf("report with distributed summary does not marshal: %v", err)
	}
}

// TestAggregateResultsFolds pins the pure fold: duplicates collapse to the
// first copy, bug/issue IDs union sorted, dead-lettered and missing jobs are
// surfaced instead of silently dropped.
func TestAggregateResultsFolds(t *testing.T) {
	results := []queue.JobResult{
		{JobID: 2, Trials: 4, Exercised: true, BugIDs: []int{9, 3}, IssueIDs: []string{"b"}},
		{JobID: 0, Trials: 2, BugIDs: []int{3}},
		{JobID: 2, Trials: 4, Exercised: true, BugIDs: []int{9, 3}, IssueIDs: []string{"b"}}, // redelivered copy
		{JobID: 1, Trials: 1, Exercised: true, IssueIDs: []string{"a"}},
	}
	dead := []queue.DeadJob{{Job: queue.Job{ID: 4}, Attempts: 3, Reason: "poisoned"}}
	sum := AggregateResults(6, results, dead)
	want := DistSummary{
		Expected:   6,
		Reported:   3,
		Duplicates: 1,
		Exercised:  2,
		Trials:     7,
		BugIDs:     []int{3, 9},
		IssueIDs:   []string{"a", "b"},
		DeadJobs:   []int{4},
		Missing:    []int{3, 5},
	}
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("AggregateResults = %+v, want %+v", sum, want)
	}
	if !sum.Lost() {
		t.Fatal("Lost() = false with missing jobs")
	}
	clean := AggregateResults(3, results, nil)
	if clean.Lost() {
		t.Fatalf("Lost() = true for fully-settled campaign: %+v", clean)
	}
}
