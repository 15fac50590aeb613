package core

import (
	"reflect"
	"testing"
	"time"

	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/obs"
	"snowboard/internal/queue"
)

// agreeSpec is the pinned campaign TestQueueExecutorsAgree runs through
// every queue executor.
var agreeSpec = CampaignSpec{Name: "agree", Seed: 5, FuzzBudget: 150, CorpusCap: 40, TestBudget: 12, Trials: 8, Workers: 2}

// Expected findings of agreeSpec, recorded from the sbd executor before
// the queue executors were merged into ExecuteJob.
var (
	agreeBugIDs   = []int{2, 11, 13}
	agreeIssueIDs = []string{
		"fs-error:EXT4-fs error (device sda): swap_inode_boot_loader: inode checksum invalid",
		"fs-error:EXT4-fs error (device sda): swap_inode_boot_loader:316: inode #3: comm test: iget: checksum invalid",
		"race:cache_alloc_refill:store_free_objects/cache_alloc_refill:load_free_objects",
		"race:cache_alloc_refill:store_free_objects/cache_alloc_refill:store_free_objects",
		"race:configfs_mkdir:list_add_head/configfs_lookup:load_children_head",
		"race:configfs_mkdir:store_name_hash/configfs_lookup:load_name_hash",
		"race:configfs_mkdir:store_next/configfs_lookup:load_next",
		"race:ext4_file_write_iter:store_i_block/swap_inode_boot_loader:load_target_block",
		"race:ext4_file_write_iter:store_i_block/swap_inode_boot_loader:store_target_block",
		"race:ext4_file_write_iter:store_i_csum/swap_inode_boot_loader:store_target_csum",
		"race:swap_inode_boot_loader:store_target_block/ext4_file_write_iter:store_i_block",
		"race:swap_inode_boot_loader:store_target_block/ext4_iget:load_i_block",
		"race:swap_inode_boot_loader:store_target_csum/ext4_file_write_iter:store_i_csum",
		"race:swap_inode_boot_loader:store_target_csum/ext4_iget:load_i_csum",
	}
)

// perJob keeps the first result reported for each job, minus the worker
// name: at-least-once delivery may report a job twice, and any copy is
// representative.
func perJob(results []queue.JobResult) map[int]queue.JobResult {
	out := make(map[int]queue.JobResult, len(results))
	for _, res := range results {
		if _, ok := out[res.JobID]; !ok {
			res.Worker = ""
			out[res.JobID] = res
		}
	}
	return out
}

// runAgreeCampaign runs agreeSpec through StartCampaign in env and returns
// its per-job results and delivery summary.
func runAgreeCampaign(t *testing.T, env CampaignEnv) (map[int]queue.JobResult, DistSummary) {
	t.Helper()
	c, err := StartCampaign(agreeSpec, env)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return perJob(c.results), *r.Distributed
}

// TestQueueExecutorsAgree runs one spec's generated tests through every
// queue executor — the sbd campaign on the in-process leaser, the sbd
// campaign over a loopback TCP listener with injected connection faults
// (jobs by corpus reference), and an sbqueue-style coordinator drained by
// the sbexec worker loop — and requires identical per-job results and
// delivery summaries.
func TestQueueExecutorsAgree(t *testing.T) {
	// (a) sbd, in-process leaser, inline jobs.
	regA := queue.NewRegistry(queue.Options{})
	defer regA.Close()
	jobsA, sumA := runAgreeCampaign(t, CampaignEnv{Registry: regA})

	// (b) sbd over the registry listener, every connection flaky, jobs by
	// corpus digest resolved against the campaign's pipeline corpus.
	regB := queue.NewRegistry(queue.Options{LeaseTimeout: 300 * time.Millisecond, MaxAttempts: 10})
	defer regB.Close()
	srvB, err := queue.ServeRegistry(regB, "127.0.0.1:0", queue.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	reconnects := obs.C(obs.MQueueNetReconn).Value()
	jobsB, sumB := runAgreeCampaign(t, CampaignEnv{
		StateDir: t.TempDir(),
		Registry: regB,
		Addr:     srvB.Addr(),
		Dial:     queue.FlakyDialer(queue.FlakyOptions{Seed: 7, FailProb: 0.03, DelayProb: 0.1, MaxDelay: 2 * time.Millisecond}, nil),
	})
	reconnects = obs.C(obs.MQueueNetReconn).Value() - reconnects
	t.Logf("TCP campaign reconnected %d times", reconnects)
	if reconnects == 0 {
		t.Error("no connection fault was injected; the TCP path ran clean")
	}

	// (c) sbqueue-style coordinator: local stages, tests pushed onto a
	// plain TCP queue, drained by the sbexec worker loop on a fresh kernel.
	opts, err := agreeSpec.BuildOptions("")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(opts)
	r := p.NewReport()
	p.BuildCorpus(r)
	if err := p.ProfileAll(r); err != nil {
		t.Fatal(err)
	}
	p.IdentifyPMCs(r)
	tests := p.GenerateTests(r, opts.TestBudget)
	q := queue.New()
	defer q.Close()
	srvC, err := queue.Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvC.Close()
	if err := PushTests(q, tests, "", ""); err != nil {
		t.Fatal(err)
	}
	client, err := queue.Dial(srvC.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	x := NewJobExplorer(exec.NewEnv(kernel.Config{Version: opts.Version}), opts.Trials)
	if n := WorkJobs(client, x, "sbexec", nil, 200*time.Millisecond); n != len(tests) {
		t.Fatalf("sbexec loop leased %d jobs, want %d", n, len(tests))
	}
	resultsC := q.Results()
	jobsC, sumC := perJob(resultsC), AggregateResults(len(tests), resultsC, q.DeadLetters())

	if len(jobsA) != agreeSpec.TestBudget {
		t.Fatalf("in-process campaign reported %d jobs, want %d", len(jobsA), agreeSpec.TestBudget)
	}
	if !reflect.DeepEqual(jobsA, jobsB) {
		t.Errorf("TCP campaign job results differ from in-process:\n%v\nvs\n%v", jobsB, jobsA)
	}
	if !reflect.DeepEqual(jobsA, jobsC) {
		t.Errorf("sbqueue+sbexec job results differ from in-process:\n%v\nvs\n%v", jobsC, jobsA)
	}
	sumA.Duplicates, sumB.Duplicates, sumC.Duplicates = 0, 0, 0
	if !reflect.DeepEqual(sumA, sumB) || !reflect.DeepEqual(sumA, sumC) {
		t.Errorf("delivery summaries differ:\nin-process %+v\nTCP        %+v\nsbexec     %+v", sumA, sumB, sumC)
	}
	if !reflect.DeepEqual(sumA.BugIDs, agreeBugIDs) || !reflect.DeepEqual(sumA.IssueIDs, agreeIssueIDs) {
		t.Errorf("pinned findings moved:\nbugs   %v, want %v\nissues %q\nwant   %q", sumA.BugIDs, agreeBugIDs, sumA.IssueIDs, agreeIssueIDs)
	}
}

// TestExecuteJobNacksUnresolvable: a by-reference job the executor has no
// corpus for is nacked for redelivery — never explored, reported or acked.
func TestExecuteJobNacksUnresolvable(t *testing.T) {
	q := queue.New()
	defer q.Close()
	if err := q.Push(queue.Job{ID: 3, Corpus: "ab12"}); err != nil {
		t.Fatal(err)
	}
	ls, err := q.TryLease()
	if err != nil {
		t.Fatal(err)
	}
	x := NewJobExplorer(exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3}), 1)
	if _, err := ExecuteJob(localLeaser{q: q}, x, ls, "test", nil); err == nil {
		t.Fatal("unresolvable job executed")
	}
	if st := q.Stats(); st.Pending != 1 || st.Leased != 0 || st.Done != 0 {
		t.Fatalf("stats after unresolvable job = %+v, want it pending again", st)
	}
	if res := q.Results(); len(res) != 0 {
		t.Fatalf("unresolvable job reported %+v", res)
	}
}
