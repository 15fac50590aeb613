package main

import (
	"snowboard/internal/core"
	"snowboard/internal/cover"
	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/par"
	"snowboard/internal/pmc"
	"snowboard/internal/sched"
	"snowboard/internal/trace"
)

// trialSample accumulates per-trial phase costs measured by replaying
// trials of sampled concurrent tests, one public call per phase, on one
// goroutine. Times are in microseconds per replayed trial.
type trialSample struct {
	guest, fsck, analyze, hb, pairs, segments, channel []float64
	steps, accesses                                    []float64
	testMs                                             []float64 // whole sched.Explorer.Explore calls
}

// sampler describes how the campaign under test explores: which explorer
// settings it uses and how it seeds each test.
type sampler struct {
	p        *core.Pipeline
	explorer sched.Explorer // template; Env, Seed set per test
	seedOf   func(i int) int64
	cover    bool // the campaign's explorer tracks coverage
}

// localSampler mirrors core.Pipeline's stage-4 explorer and its per-test
// seeds.
func localSampler(p *core.Pipeline, opts core.Options) sampler {
	return sampler{
		p: p,
		explorer: sched.Explorer{
			Trials:            opts.Trials,
			Mode:              sched.ModeSnowboard,
			Detect:            opts.Detect,
			KnownPMCs:         p.PMCs,
			DisableIncidental: opts.DisableIncidental,
			TrackSegments:     true,
			MutateSchedules:   opts.Feedback,
		},
		seedOf: func(i int) int64 { return exploreSeed(opts.Seed, i) },
		cover:  true,
	}
}

// fleetSampler mirrors the control plane's executor: no coverage, and a
// seed derived from the job ID (the test's index) alone.
func fleetSampler(p *core.Pipeline, trials int) sampler {
	return sampler{
		p: p,
		explorer: sched.Explorer{
			Trials: trials,
			Mode:   sched.ModeSnowboard,
			Detect: detect.DefaultOptions(),
		},
		seedOf: func(i int) int64 { return int64(i)*1009 + 1 },
	}
}

// run explores k evenly spaced tests once each, timing the whole Explore
// call, then replays their first trials phase by phase. A replayed trial
// starts from the test's hints with no accumulated flags: exactly the
// explorer's first trial, and a representative later one.
func (s sampler) run(tests []sched.ConcurrentTest, k, trials int, rec *recorder, parent int, tr string, out *trialSample) {
	if len(tests) == 0 {
		return
	}
	if k > len(tests) {
		k = len(tests)
	}
	env := s.p.Env
	fsck := func() []string { return env.K.FsckHost() }
	for j := 0; j < k; j++ {
		i := j * len(tests) / k
		ct := tests[i]
		x := s.explorer
		x.Env, x.Seed, x.Fsck = env, s.seedOf(i), fsck
		if s.cover {
			x.Coverage = cover.New()
		}
		d := rec.timed("sched.Explorer.Explore", parent, tr, func() { x.Explore(ct) })
		out.testMs = append(out.testMs, float64(d)/1e6)

		cov, segs := cover.New(), cover.NewSegments()
		for t := 0; t < trials; t++ {
			st := &sched.ReproState{Seed: x.Seed + int64(t), Trial: t, PMCs: hintsOf(ct)}
			s.replay(ct, st, cov, segs, rec, parent, tr, out)
		}
	}
}

// replay runs one trial and each per-trial analysis the explorer runs on
// it, timing every call into out.
func (s sampler) replay(ct sched.ConcurrentTest, st *sched.ReproState, cov *cover.Coverage, segs *cover.Segments,
	rec *recorder, parent int, tr string, out *trialSample) {
	env := s.p.Env
	var t trace.Trace
	var res exec.Result
	us := func(name string, f func()) float64 {
		return float64(rec.timed(name, parent, tr, f)) / 1e3
	}
	out.guest = append(out.guest, us("sched.Replay", func() {
		res = sched.Replay(env, ct, st, &t)
		env.M.SetTrace(nil)
	}))
	var post []string
	out.fsck = append(out.fsck, us("kernel.FsckHost", func() { post = env.K.FsckHost() }))
	in := detect.TrialInput{Console: res.Console, Trace: &t, PostScan: post, Hung: res.Hung, Deadlock: res.Deadlock}
	out.analyze = append(out.analyze, us("detect.Analyze", func() { detect.Analyze(in, s.explorer.Detect) }))
	out.hb = append(out.hb, us("detect.FindRacesHB", func() { detect.FindRacesHB(&t) }))
	if s.cover {
		out.pairs = append(out.pairs, us("cover.Coverage.AddTrace", func() { cov.AddTrace(&t) }))
		out.segments = append(out.segments, us("cover.Segments.AddTrace", func() { segs.AddTrace(&t) }))
	}
	if ct.Hint != nil {
		out.channel = append(out.channel, us("sched.ChannelExercised", func() { sched.ChannelExercised(&t, ct.Hint) }))
	}
	out.steps = append(out.steps, float64(res.Steps))
	out.accesses = append(out.accesses, float64(t.Len()))
}

// maxHints is the explorer's bound on the PMC set under test.
const maxHints = 4

// hintsOf is the PMC set a test's first trial starts with: the hint, then
// composed co-hints, up to the explorer's bound.
func hintsOf(ct sched.ConcurrentTest) []pmc.PMC {
	var out []pmc.PMC
	if ct.Hint != nil {
		out = append(out, *ct.Hint)
	}
	for _, h := range ct.Extra {
		if len(out) == maxHints {
			break
		}
		out = append(out, h)
	}
	return out
}

// exploreSeed is the seed core.Pipeline gives the i-th test of a
// campaign's first stage-4 call.
func exploreSeed(seed int64, i int) int64 { return par.UnitSeed(seed, par.StageExplore, i) }
