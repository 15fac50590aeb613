package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"snowboard/internal/core"
	"snowboard/internal/detect"
	"snowboard/internal/store"
	"snowboard/internal/triage"
)

// checker counts attempted and failed campaigns. A campaign fails when it
// errors or when any output check on its report fails; fail_rate is
// failed over attempted.
type checker struct {
	attempted int
	failed    int
	problems  []string // first few failure reasons, for the log

	// want maps a campaign seed to the fingerprint of its first report:
	// every later report for the same seed must match it.
	want     map[int64]string
	repeats  int // reports compared against an earlier one
	bundles  int // triage bundles decoded
	verified int // store-backed differential re-runs compared
}

func newChecker() *checker { return &checker{want: make(map[int64]string)} }

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c *checker) failRate() float64 { return ratio(float64(c.failed), float64(c.attempted)) }

// campaign checks one finished campaign and records the outcome.
func (c *checker) campaign(seed int64, r *core.Report, err error) {
	c.attempted++
	if err != nil {
		c.fail("seed %d: campaign error: %v", seed, err)
		return
	}
	if msg := reportProblem(r); msg != "" {
		c.fail("seed %d: %s", seed, msg)
		return
	}
	fp, ferr := fingerprint(r)
	if ferr != nil {
		c.fail("seed %d: fingerprint: %v", seed, ferr)
		return
	}
	if prev, ok := c.want[seed]; ok {
		c.repeats++
		if prev != fp {
			c.fail("seed %d: report differs from an earlier run of the same seed", seed)
		}
		return
	}
	c.want[seed] = fp
}

// reportProblem returns why r is wrong, or "" when it passes the checks
// that need no second report: every bug ID is a Table 2 row, and a
// distributed run neither lost nor dead-lettered a job and executed
// exactly the jobs it enqueued.
func reportProblem(r *core.Report) string {
	if r == nil {
		return "no report"
	}
	for _, id := range bugIDs(r) {
		if _, ok := detect.BugByID(id); !ok {
			return fmt.Sprintf("bug id %d is not in Table 2", id)
		}
	}
	if d := r.Distributed; d != nil {
		switch {
		case len(d.Missing) > 0:
			return fmt.Sprintf("jobs missing: %v", d.Missing)
		case len(d.DeadJobs) > 0:
			return fmt.Sprintf("jobs dead-lettered: %v", d.DeadJobs)
		case d.Reported != d.Expected:
			return fmt.Sprintf("executed %d of %d jobs", d.Reported, d.Expected)
		}
	}
	return ""
}

// bugIDs returns the distinct Table 2 ids a report found, from the
// distributed fold when the run fanned out over the queue.
func bugIDs(r *core.Report) []int {
	if r.Distributed != nil {
		return r.Distributed.BugIDs
	}
	return r.BugIDs()
}

// fingerprint digests the deterministic part of a report: everything but
// stage timings, the frozen metrics registry and the count of redelivered
// duplicates, which depend on the machine rather than the campaign.
func fingerprint(r *core.Report) (string, error) {
	s := *r
	s.FuzzTime, s.ProfileTime, s.IdentifyTime, s.ClusterTime, s.ExecTime = 0, 0, 0, 0, 0
	s.Metrics = nil
	if r.Distributed != nil {
		d := *r.Distributed
		d.Duplicates = 0
		s.Distributed = &d
	}
	b, err := json.Marshal(&s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// storeRerun checks a store-backed re-run of a campaign against the
// in-memory reference: the report must match (an artifact store never
// changes what a run computes), and every triage bundle the report names
// must load from the store and decode. It counts as one attempted
// operation.
func (c *checker) storeRerun(seed int64, r *core.Report, err error, st *store.Store) {
	c.attempted++
	if err != nil {
		c.fail("seed %d: store-backed re-run: %v", seed, err)
		return
	}
	fp, ferr := fingerprint(r)
	if ferr != nil {
		c.fail("seed %d: fingerprint: %v", seed, ferr)
		return
	}
	if want, ok := c.want[seed]; ok {
		c.verified++
		if fp != want {
			c.fail("seed %d: store-backed report differs from the in-memory one", seed)
			return
		}
	}
	for _, id := range r.BugIDs() {
		rec := r.Issues[id]
		if rec.Triage == nil {
			continue
		}
		d, perr := store.ParseDigest(rec.Triage.Bundle)
		if perr != nil {
			c.fail("seed %d: bug %d: bundle digest: %v", seed, id, perr)
			return
		}
		b, lerr := triage.LoadBundle(st, d)
		if lerr != nil {
			c.fail("seed %d: bug %d: bundle does not decode: %v", seed, id, lerr)
			return
		}
		if b.BugID != id || b.Signature.Key() != rec.Triage.Signature {
			c.fail("seed %d: bug %d: bundle names bug %d signature %s", seed, id, b.BugID, b.Signature.Key())
			return
		}
		c.bundles++
	}
}
