package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/obs"
	"snowboard/internal/queue"
	"snowboard/internal/sched"
)

// This file is stage 4 over the test queue, shared by every queue
// transport: PushTests enqueues the generated tests, ExecuteJob runs one
// leased job (WorkJobs is the standalone worker loop around it), and
// AggregateResults folds the reported results into a DistSummary. The
// sbd campaign executor, the sbqueue coordinator and the sbexec worker
// all go through these, so a job reports the same result whichever
// executor ran it.

// PushTests enqueues tests as jobs 0..len(tests)-1, each tagged with the
// originating campaign's trace. With a corpus digest the jobs travel by
// reference (digest plus pair indices, resolved by the executor);
// otherwise they carry both programs inline.
func PushTests(q *queue.Queue, tests []sched.ConcurrentTest, corpusDigest, trace string) error {
	for i, ct := range tests {
		job := queue.Job{ID: i, Hint: ct.Hint, Pair: ct.Pair, Trace: trace}
		if corpusDigest != "" {
			job.Corpus = corpusDigest
		} else {
			job.Writer, job.Reader = ct.Writer, ct.Reader
		}
		if err := q.Push(job); err != nil {
			return fmt.Errorf("push job %d: %w", i, err)
		}
	}
	return nil
}

// JobLeaser is where a queue executor leases from: a queue.Client over
// TCP, or the in-process queue (localLeaser).
type JobLeaser interface {
	Lease() (queue.Lease, error)
	Ack(id uint64) error
	Nack(id uint64, reason string) error
	Extend(id uint64, d time.Duration) (time.Time, error)
	Report(res queue.JobResult) error
	Close() error
}

// localLeaser leases from an in-process queue without blocking.
type localLeaser struct{ q *queue.Queue }

func (l localLeaser) Lease() (queue.Lease, error)         { return l.q.TryLease() }
func (l localLeaser) Ack(id uint64) error                 { return l.q.Ack(id) }
func (l localLeaser) Nack(id uint64, reason string) error { return l.q.Nack(id, reason) }
func (l localLeaser) Extend(id uint64, d time.Duration) (time.Time, error) {
	return l.q.Extend(id, d)
}
func (l localLeaser) Report(res queue.JobResult) error { return l.q.Report(res) }
func (l localLeaser) Close() error                     { return nil }

// keepLease extends a lease at half-TTL intervals until stopped, so
// explorations longer than the queue's lease timeout are not reaped out
// from under a live executor. stop is idempotent.
func keepLease(lsr JobLeaser, ls queue.Lease) (stop func()) {
	ttl := time.Until(ls.Deadline)
	if ttl < 20*time.Millisecond {
		ttl = 20 * time.Millisecond
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(ttl / 2)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if _, err := lsr.Extend(ls.ID, 0); err != nil {
					// Lease gone (expired or settled elsewhere); the fold
					// deduplicates, nothing more to keep alive.
					return
				}
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// NewJobExplorer returns the explorer queue jobs run on: default detector
// options and the host-side fsck after each trial. ExecuteJob sets the
// per-job seed and trace.
func NewJobExplorer(env *exec.Env, trials int) *sched.Explorer {
	return &sched.Explorer{
		Env:    env,
		Trials: trials,
		Mode:   sched.ModeSnowboard,
		Detect: detect.DefaultOptions(),
		Fsck:   func() []string { return env.K.FsckHost() },
	}
}

// ExecuteJob runs one leased job on x and settles its lease: resolve a
// by-reference job (a nil resolve has no corpus to resolve against), keep
// the lease alive while exploring, Report, then Ack. A job that cannot be resolved or whose result cannot be reported
// is nacked for redelivery and the error returned. The exploration seed
// derives from the job ID alone, so every executor — and every
// redelivery — reports the same result.
func ExecuteJob(lsr JobLeaser, x *sched.Explorer, ls queue.Lease, worker string, resolve func(*queue.Job) error) (queue.JobResult, error) {
	job := ls.Job
	if resolve == nil {
		// No corpus to resolve against: a by-reference job fails with a
		// clear reason instead of crashing the executor.
		resolve = func(j *queue.Job) error { return j.Resolve(nil) }
	}
	if !job.Inline() {
		if err := resolve(&job); err != nil {
			obs.Diag.Printf("%s: job %d unresolvable: %v — nacking", worker, job.ID, err)
			nack(lsr, ls, worker, err.Error())
			return queue.JobResult{}, err
		}
	}
	stop := keepLease(lsr, ls)
	defer stop() // also when Explore panics
	x.Seed = int64(job.ID)*1009 + 1
	// Stitch this job's spans and events to the originating campaign's
	// trace, so a distributed run's timeline reads end-to-end.
	x.Trace = job.Trace
	out := x.Explore(sched.ConcurrentTest{
		Writer: job.Writer, Reader: job.Reader, Hint: job.Hint, Pair: job.Pair,
	})
	stop()
	res := queue.JobResult{
		JobID:     job.ID,
		Trials:    out.Trials,
		Exercised: out.Exercised,
		Worker:    worker,
	}
	for _, is := range out.Issues {
		res.IssueIDs = append(res.IssueIDs, is.ID())
		if is.BugID != 0 {
			res.BugIDs = append(res.BugIDs, is.BugID)
		}
	}
	if err := lsr.Report(res); err != nil {
		// The result never landed: nack so the job redelivers and reports
		// from a healthier executor.
		obs.Diag.Printf("%s: report job %d: %v — nacking for redelivery", worker, job.ID, err)
		nack(lsr, ls, worker, "report failed: "+err.Error())
		return res, err
	}
	if err := lsr.Ack(ls.ID); err != nil && !errors.Is(err, queue.ErrUnknownLease) {
		// ErrUnknownLease is benign: the lease expired and the job was
		// redelivered; the fold deduplicates by job ID.
		obs.Diag.Printf("%s: ack job %d: %v", worker, job.ID, err)
	}
	return res, nil
}

func nack(lsr JobLeaser, ls queue.Lease, worker, reason string) {
	if err := lsr.Nack(ls.ID, reason); err != nil && !errors.Is(err, queue.ErrUnknownLease) {
		obs.Diag.Printf("%s: nack job %d: %v", worker, ls.Job.ID, err)
	}
}

// WorkJobs is a standalone queue worker: it leases and executes jobs
// until the queue closes, the leaser gives up (a TCP client has already
// retried with backoff by then), or nothing is pending for idleExit. It
// returns the number of jobs leased.
func WorkJobs(lsr JobLeaser, x *sched.Explorer, worker string, resolve func(*queue.Job) error, idleExit time.Duration) int {
	leased := 0
	idleSince := time.Now()
	for {
		ls, err := lsr.Lease()
		switch {
		case errors.Is(err, queue.ErrEmpty):
			if time.Since(idleSince) > idleExit {
				return leased
			}
			time.Sleep(100 * time.Millisecond)
			continue
		case errors.Is(err, queue.ErrClosed):
			return leased
		case err != nil:
			// The coordinator is unreachable; leased work redelivers
			// elsewhere.
			obs.Diag.Printf("%s: lease: %v — worker exiting", worker, err)
			return leased
		}
		idleSince = time.Now()
		leased++
		ExecuteJob(lsr, x, ls, worker, resolve)
	}
}

// DistSummary is the distributed-mode portion of a campaign report: the
// deterministic fold of every worker JobResult plus the queue's dead-letter
// list. At-least-once delivery means a redelivered job can report more than
// once; each job is counted exactly once here, and because worker seeds
// derive from the job ID alone, every copy of a job's result is identical —
// so the summary is byte-for-byte the same whether or not any worker
// crashed mid-campaign.
type DistSummary struct {
	Expected   int      `json:"expected"`             // jobs enqueued
	Reported   int      `json:"reported"`             // distinct jobs with a result
	Duplicates int      `json:"duplicates,omitempty"` // redelivered copies folded away
	Exercised  int      `json:"exercised"`            // distinct jobs whose PMC channel occurred
	Trials     int      `json:"trials"`               // interleaving trials, each job counted once
	BugIDs     []int    `json:"bug_ids,omitempty"`    // sorted distinct Table 2 ids
	IssueIDs   []string `json:"issue_ids,omitempty"`  // sorted distinct issue ids
	DeadJobs   []int    `json:"dead_jobs,omitempty"`  // job IDs that exhausted delivery attempts
	Missing    []int    `json:"missing,omitempty"`    // job IDs neither reported nor dead-lettered
}

// Lost reports whether any job was silently lost: neither reported nor
// accounted for on the dead-letter list. Under leased delivery this should
// always be false once the queue settles.
func (s *DistSummary) Lost() bool { return len(s.Missing) > 0 }

// AggregateResults folds worker results into a deterministic summary,
// counting each of the `expected` jobs (IDs 0..expected-1, as enqueued by
// the coordinator) exactly once no matter how many times the queue
// redelivered it. The first result per job ID is taken as representative
// (any copy is — see DistSummary); later copies only bump Duplicates.
// Dead-lettered jobs are surfaced so a poisoned job is never silently
// dropped from the report.
func AggregateResults(expected int, results []queue.JobResult, dead []queue.DeadJob) DistSummary {
	sum := DistSummary{Expected: expected}
	seen := make(map[int]bool, len(results))
	bugs := make(map[int]bool)
	issues := make(map[string]bool)
	for _, res := range results {
		if seen[res.JobID] {
			sum.Duplicates++
			continue
		}
		seen[res.JobID] = true
		sum.Reported++
		sum.Trials += res.Trials
		if res.Exercised {
			sum.Exercised++
		}
		for _, id := range res.BugIDs {
			bugs[id] = true
		}
		for _, id := range res.IssueIDs {
			issues[id] = true
		}
	}
	for id := range bugs {
		sum.BugIDs = append(sum.BugIDs, id)
	}
	sort.Ints(sum.BugIDs)
	for id := range issues {
		sum.IssueIDs = append(sum.IssueIDs, id)
	}
	sort.Strings(sum.IssueIDs)
	deadSet := make(map[int]bool, len(dead))
	for _, d := range dead {
		if !deadSet[d.Job.ID] {
			deadSet[d.Job.ID] = true
			sum.DeadJobs = append(sum.DeadJobs, d.Job.ID)
		}
	}
	sort.Ints(sum.DeadJobs)
	for id := 0; id < expected; id++ {
		if !seen[id] && !deadSet[id] {
			sum.Missing = append(sum.Missing, id)
		}
	}
	return sum
}
