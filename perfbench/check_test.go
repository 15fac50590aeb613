package main

import (
	"errors"
	"testing"

	"snowboard/internal/core"
	"snowboard/internal/detect"
)

func report(bugs ...int) *core.Report {
	r := &core.Report{Method: "S-INS-PAIR", Issues: make(map[int]core.IssueRecord)}
	for _, id := range bugs {
		r.Issues[id] = core.IssueRecord{Issue: detect.Issue{BugID: id}}
	}
	return r
}

func TestFailRateCounting(t *testing.T) {
	c := newChecker()
	c.campaign(1, report(11, 13), nil) // reference for seed 1
	c.campaign(2, report(13), nil)
	withTime := report(11, 13)
	withTime.ExecTime = 12345 // timings are not part of the comparison
	c.campaign(1, withTime, nil)
	if c.attempted != 3 || c.failed != 0 || c.repeats != 1 {
		t.Fatalf("clean runs: attempted=%d failed=%d repeats=%d, want 3 0 1", c.attempted, c.failed, c.repeats)
	}

	c.campaign(1, report(11), nil)         // differs from seed 1's first report
	c.campaign(3, nil, errors.New("boom")) // errored campaign
	c.campaign(4, report(99), nil)         // not a Table 2 row
	c.campaign(5, &core.Report{Distributed: &core.DistSummary{Expected: 3, Reported: 2}}, nil)
	c.campaign(6, &core.Report{Distributed: &core.DistSummary{Expected: 3, Reported: 3, DeadJobs: []int{2}}}, nil)
	c.campaign(7, &core.Report{Distributed: &core.DistSummary{Expected: 3, Reported: 2, Missing: []int{1}}}, nil)
	if c.attempted != 9 || c.failed != 6 {
		t.Fatalf("attempted=%d failed=%d, want 9 and 6 (problems %v)", c.attempted, c.failed, c.problems)
	}
	if got := c.failRate(); got != 6.0/9 {
		t.Errorf("failRate = %v, want 6/9", got)
	}
}

func TestFingerprintIgnoresMachineDependentFields(t *testing.T) {
	a := &core.Report{Distributed: &core.DistSummary{Expected: 4, Reported: 4, BugIDs: []int{13}}}
	b := &core.Report{FuzzTime: 7, ExecTime: 9, Distributed: &core.DistSummary{Expected: 4, Reported: 4, Duplicates: 2, BugIDs: []int{13}}}
	fa, _ := fingerprint(a)
	fb, _ := fingerprint(b)
	if fa != fb {
		t.Error("timings or redelivered duplicates changed the fingerprint")
	}
	b.Distributed.Exercised = 1
	if fc, _ := fingerprint(b); fc == fa {
		t.Error("a counted outcome did not change the fingerprint")
	}
}
