package main

import (
	"time"

	"snowboard/internal/core"
	"snowboard/internal/obs"
	"snowboard/internal/sched"
)

// runLocal runs one campaign in-process. Untraced (rec == nil) it is one
// core.Run call. Traced, it makes the same calls core.Run makes without a
// store, one core.Pipeline stage method at a time, each inside a span; it
// also returns the pipeline and the tests stage 3 generated, for the
// per-trial sample taken after the campaign.
func runLocal(workload string, seed int64, rec *recorder, trace string) (outcome, *core.Pipeline, []sched.ConcurrentTest) {
	opts := localOptions(workload, seed)
	o := outcome{seed: seed}
	if rec == nil {
		t := time.Now()
		o.report, o.err = core.Run(opts)
		o.dur = time.Since(t)
		return o, nil, nil
	}
	root := rec.start("core.Run", 0, trace)
	var p *core.Pipeline
	rec.timed("core.NewPipeline", root, trace, func() { p = core.NewPipeline(opts) })
	r := p.NewReport()
	rec.timed("core.Pipeline.BuildCorpus", root, trace, func() { p.BuildCorpus(r) })
	rec.timed("core.Pipeline.ProfileAll", root, trace, func() { o.err = p.ProfileAll(r) })
	if o.err != nil {
		o.dur = rec.end(root)
		return o, nil, nil
	}
	rec.timed("core.Pipeline.IdentifyPMCs", root, trace, func() { p.IdentifyPMCs(r) })
	var tests []sched.ConcurrentTest
	if opts.Feedback {
		rec.timed("core.Pipeline.RunFeedback", root, trace, func() { p.RunFeedback(r, opts.TestBudget) })
	} else {
		rec.timed("core.Pipeline.GenerateTests", root, trace, func() { tests = p.GenerateTests(r, opts.TestBudget) })
		rec.timed("core.Pipeline.ExecuteTests", root, trace, func() { p.ExecuteTests(r, tests) })
	}
	rec.timed("core.Pipeline.TriageReport", root, trace, func() { p.TriageReport(r) })
	r.CaptureMetrics()
	obs.Emit(obs.EvCampaignDone, obs.A("cache", false), obs.A("issues", len(r.Issues)))
	o.dur = rec.end(root)
	o.report = r
	return o, p, tests
}
