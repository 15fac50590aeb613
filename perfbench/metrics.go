package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric; BENCHMARK.json lists the same set.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees, measured untraced.
// Times are CPU time, user plus system, of the whole process: on a shared
// virtual machine wall time also counts the time the host ran other
// guests, which moved whole runs by a third. Wall-clock figures and the
// paper's wall-clock exec/min are printed beside them but not reported as
// metrics, and so are fail_rate and segments_covered: both are legitimately
// 0 (no failures; no coverage on the fleet path), and a metric's spread is
// taken relative to its median.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"campaign_cpu_s_p50", "s", "lower"},
	{"campaign_cpu_s_tail", "s", "lower"},
	{"exec_per_cpu_min", "1/cpu-min", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"bugs_found", "count", "higher"},
}

// perLayer are the traced run's metrics, per campaign unless the name
// says otherwise; per-trial phases come from the replayed sample.
var perLayer = []metricDef{
	{"detect.analyze_us", "us", "lower"},
	{"detect.hb_us", "us", "lower"},
	{"cover.pairs_us", "us", "lower"},
	{"cover.segments_us", "us", "lower"},
	{"sched.channel_us", "us", "lower"},
	{"vm.trial_us", "us", "lower"},
	{"vm.steps_per_trial", "count", "lower"},
	{"trace.accesses_per_trial", "count", "lower"},
	{"sched.explore_s", "s", "lower"},
	{"sched.test_ms_p50", "ms", "lower"},
	{"sched.test_ms_tail", "ms", "lower"},
	{"sched.tests", "count", "higher"},
	{"sched.trials", "count", "higher"},
	{"sched.switches", "count", "higher"},
	{"sched.exercised_ratio", "ratio", "higher"},
	{"explore.trial_us", "us", "lower"},
	{"explore.explained_ratio", "ratio", "higher"},
	{"explore.residual_us", "us", "lower"},
	{"fuzz.wall_s", "s", "lower"},
	{"fuzz.execs", "count", "higher"},
	{"fuzz.execs_per_s", "1/s", "higher"},
	{"fuzz.corpus", "count", "higher"},
	{"exec.profile_s", "s", "lower"},
	{"exec.profiled_accesses", "count", "higher"},
	{"pmc.identify_s", "s", "lower"},
	{"pmc.distinct", "count", "higher"},
	{"pmc.combinations", "count", "higher"},
	{"cluster.generate_s", "s", "lower"},
	{"cover.segments_new", "count", "higher"},
	{"cover.segments_covered", "count", "higher"},
	{"triage.wall_s", "s", "lower"},
	{"triage.findings", "count", "higher"},
	{"triage.replays", "count", "lower"},
	{"queue.jobs", "count", "higher"},
	{"queue.lease_ms_p50", "ms", "lower"},
	{"queue.lease_ms_tail", "ms", "lower"},
	{"queue.ack_ms_p50", "ms", "lower"},
	{"queue.redelivered", "count", "lower"},
	{"queue.dead_letters", "count", "lower"},
	{"store.puts", "count", "lower"},
	{"store.put_mb", "MB", "lower"},
	{"store.hits", "count", "higher"},
	{"store.misses", "count", "lower"},
	{"core.submit_ms", "ms", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// result is what a run reports: metric values plus, for metrics that do
// not apply to the workload, the reason (their value is then 0).
type result struct {
	values map[string]float64
	absent map[string]string
	notes  []string // human-readable context printed before the JSON line
}

func newResult() *result {
	return &result{values: make(map[string]float64), absent: make(map[string]string)}
}

func (r *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}

func (r *result) skip(reason string, names ...string) {
	for _, n := range names {
		r.values[n] = 0
		r.absent[n] = reason
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEndResult computes the user-visible metrics of an untraced window
// from the CPU and wall seconds of each set-up.
func endToEndResult(workload string, setupCPU, setupWall []float64, w *window, chk *checker) *result {
	r := newResult()
	n := float64(len(w.durs))
	r.set("setup_s", median(setupCPU))
	r.set("campaign_cpu_s_p50", median(w.cpu))
	t := tailOf(w.cpu)
	r.set("campaign_cpu_s_tail", t.Value)
	r.set("exec_per_cpu_min", ratio(float64(w.tests), w.cpuTotal.Minutes()))
	r.set("alloc_mb", ratio(float64(w.alloc)/1e6, n))
	r.set("peak_heap_mb", median(w.peaks)/1e6)
	var bugs, segs []float64
	for _, rep := range w.reports {
		bugs = append(bugs, float64(len(bugIDs(rep))))
		segs = append(segs, float64(rep.CoverSegments))
	}
	r.set("bugs_found", mean(bugs))

	r.note("setup_s: median of %d set-ups, CPU seconds %s; wall seconds %s", len(setupCPU), fmtList(setupCPU), fmtList(setupWall))
	q := quartiles(w.cpu)
	r.note("campaign_cpu_s_p50: median of n=%d campaigns; quartiles %.4f %.4f %.4f CPU s", len(w.cpu), q[0], q[1], q[2])
	if t.Defined {
		r.note("campaign_cpu_s_tail: p%.1f of n=%d (%d samples beyond it)", t.Pct, t.N, t.Beyond)
	} else {
		r.note("campaign_cpu_s_tail: only n=%d campaigns, so no percentile has %d beyond it; the maximum is reported", t.N, tailBeyond)
	}
	if workload == "fleet" {
		r.note("campaign_cpu_s_*: each pair's process CPU time split evenly between its two tenants")
	}
	r.note("peak_heap_mb: median over %d units of the highest live heap sampled every 5 ms while each ran; highest of all %.2f MB", len(w.peaks), maxOf(w.peaks)/1e6)
	r.note("exec_per_cpu_min: %d tests over %.2f CPU s of whole campaigns", w.tests, w.cpuTotal.Seconds())
	wq := quartiles(w.durs)
	wt := tailOf(w.durs)
	r.note("campaign_s (wall, not a metric): p50 %.4f s, quartiles %.4f %.4f, tail p%.1f %.4f s", wq[1], wq[0], wq[2], wt.Pct, wt.Value)
	if workload == "fleet" {
		r.note("exec_per_min (wall, not a metric): %.1f: %d tests across tenants over %.2f s of wall time",
			ratio(float64(w.tests), w.execTime.Minutes()), w.tests, w.execTime.Seconds())
		r.note("segments_covered: n/a (count): the control plane's explorer tracks no coverage")
	} else {
		r.note("exec_per_min (wall, not a metric): %.1f: %d tests over %.2f s of stage-4 time",
			ratio(float64(w.tests), w.execTime.Minutes()), w.tests, w.execTime.Seconds())
		r.note("segments_covered: %.2f (count): mean Report.CoverSegments per campaign", mean(segs))
	}
	r.note("fail_rate: %g (ratio): %d failed of %d attempted; %d repeated seeds compared, %d store-backed re-runs, %d triage bundles decoded",
		chk.failRate(), chk.failed, chk.attempted, chk.repeats, chk.verified, chk.bundles)
	for _, p := range chk.problems {
		r.note("FAILED: %s", p)
	}
	return r
}

// layerResult computes the per-layer metrics of a traced window; base is
// the untraced window of the same run, for the tracing overhead.
func layerResult(workload string, base, w *window, rec *recorder) *result {
	r := newResult()
	c := float64(len(w.durs))
	o := func(name string) float64 { return float64(w.obs[name]) }
	perC := func(v float64) float64 { return ratio(v, c) }
	sec := func(hist string) float64 { return perC(o(hist+".duration_ns.sum") / 1e9) }
	s := &w.sample
	fleet := workload == "fleet"

	// Per-trial phases of the sample.
	r.set("detect.analyze_us", mean(s.analyze))
	r.set("detect.hb_us", mean(s.hb))
	r.set("sched.channel_us", mean(s.channel))
	r.set("vm.trial_us", mean(s.guest))
	r.set("vm.steps_per_trial", mean(s.steps))
	r.set("trace.accesses_per_trial", mean(s.accesses))
	if fleet {
		r.skip("the control plane's explorer tracks no coverage", "cover.pairs_us", "cover.segments_us",
			"cover.segments_new", "cover.segments_covered")
	} else {
		r.set("cover.pairs_us", mean(s.pairs))
		r.set("cover.segments_us", mean(s.segments))
	}

	// Stage 4, from obs deltas over the campaigns.
	trials := o("sched.trials")
	r.set("sched.explore_s", sec("exec.test"))
	r.set("sched.test_ms_p50", median(s.testMs))
	r.set("sched.test_ms_tail", tailOf(s.testMs).Value)
	r.set("sched.tests", perC(o("exec.tests")))
	r.set("sched.trials", perC(trials))
	r.set("sched.switches", perC(o("sched.switches")))
	trialUs := ratio(o("exec.test.duration_ns.sum")/1e3, trials)
	r.set("explore.trial_us", trialUs)

	// Stages 1-3 and the reports' funnel counts.
	var corpus, accesses, distinct, combos, segs, tested, hinted, exercised []float64
	for _, rep := range w.reports {
		corpus = append(corpus, float64(rep.CorpusSize))
		accesses = append(accesses, float64(rep.ProfiledAccesses))
		distinct = append(distinct, float64(rep.DistinctPMCs))
		combos = append(combos, float64(rep.PMCCombinations))
		segs = append(segs, float64(rep.CoverSegments))
		if d := rep.Distributed; d != nil {
			tested = append(tested, float64(d.Expected))
			hinted = append(hinted, float64(d.Expected))
			exercised = append(exercised, float64(d.Exercised))
		} else {
			tested = append(tested, float64(rep.TestedTests))
			hinted = append(hinted, float64(rep.TestedPMCs))
			exercised = append(exercised, float64(rep.Exercised))
		}
	}
	fuzzS := sec("stage.fuzz")
	r.set("fuzz.wall_s", fuzzS)
	r.set("fuzz.execs", perC(o("fuzz.execs")))
	r.set("fuzz.execs_per_s", ratio(perC(o("fuzz.execs")), fuzzS))
	r.set("fuzz.corpus", mean(corpus))
	r.set("exec.profile_s", sec("stage.profile"))
	r.set("exec.profiled_accesses", mean(accesses))
	r.set("pmc.identify_s", sec("stage.identify"))
	r.set("pmc.distinct", mean(distinct))
	r.set("pmc.combinations", mean(combos))
	if workload == "feedback" {
		// RunFeedback generates inline, between its stage-4 calls.
		r.set("cluster.generate_s", sec("stage.feedback")-sec("stage.exec"))
	} else {
		r.set("cluster.generate_s", sec("stage.generate"))
	}
	r.set("sched.exercised_ratio", ratio(sum(exercised), sum(hinted)))
	r.note("sched.exercised_ratio: %.0f exercised of %.0f hinted tests over %d campaigns", sum(exercised), sum(hinted), len(w.reports))
	if !fleet {
		r.set("cover.segments_new", ratio(sum(segs), sum(tested)))
		r.set("cover.segments_covered", mean(segs))
	}

	if fleet {
		r.skip("the control plane skips triage", "triage.wall_s", "triage.findings", "triage.replays")
		lease, ack := w.rtt.ms("lease"), w.rtt.ms("ack")
		r.set("queue.jobs", mean(tested))
		r.set("queue.lease_ms_p50", median(lease))
		r.set("queue.lease_ms_tail", tailOf(lease).Value)
		r.set("queue.ack_ms_p50", median(ack))
		r.set("queue.redelivered", perC(o("queue.redeliver")))
		r.set("queue.dead_letters", perC(o("queue.dead_letter")))
		r.set("store.puts", perC(o("store.writes")))
		r.set("store.put_mb", perC(o("store.bytes_written")/1e6))
		r.set("store.hits", perC(o("store.stage_hits")))
		r.set("store.misses", perC(o("store.stage_misses")))
		r.set("core.submit_ms", median(w.submitMs))
		r.note("queue: %d lease and %d ack round trips over loopback TCP, one connection per tenant", len(lease), len(ack))
	} else {
		r.set("triage.wall_s", sec("stage.triage"))
		r.set("triage.findings", perC(o("triage.findings")))
		r.set("triage.replays", perC(o("triage.replays")))
		r.skip("stage 4 runs in-process, without a queue", "queue.jobs", "queue.lease_ms_p50", "queue.lease_ms_tail",
			"queue.ack_ms_p50", "queue.redelivered", "queue.dead_letters")
		r.skip("the workload attaches no artifact store", "store.puts", "store.put_mb", "store.hits", "store.misses")
		r.skip("campaigns run through core.Run, not the control plane", "core.submit_ms")
	}
	r.set("runtime.gc_cycles", perC(float64(w.gcCycles)))
	r.set("runtime.gc_pause_ms", perC(float64(w.gcPauseNs)/1e6))
	overhead := ratio(median(w.cpu), median(base.cpu))
	r.set("trace.overhead_ratio", overhead)
	r.note("trace.overhead_ratio: traced campaign_cpu_s_p50 %.4f s (n=%d) over untraced %.4f s (n=%d); wall p50 %.4f over %.4f s",
		median(w.cpu), len(w.cpu), median(base.cpu), len(base.cpu), median(w.durs), median(base.durs))

	explain(workload, r, s, trialUs, !fleet, int(trials))
	selfTimeNotes(r, rec.closed(), c)
	return r
}

// explain reconciles the replayed per-trial phases with the explore time
// per trial the campaigns spent inside sched.Explorer.Explore, and prints
// the split beside the ROADMAP's CPU profile for the campaign workload.
func explain(workload string, r *result, s *trialSample, trialUs float64, withCover bool, trials int) {
	type phase struct {
		name, roadmap string
		us            float64
	}
	phases := []phase{
		{"guest: sched.Replay (VM threads + kernel)", "~18%", mean(s.guest)},
		{"host post-scan: kernel FsckHost", "", mean(s.fsck)},
		{"detect.Analyze", "37%", mean(s.analyze)},
		{"  of which detect.FindRacesHB (timed alone)", "34%", mean(s.hb)},
		{"cover.Coverage.AddTrace + cover.Segments.AddTrace", "18%", mean(s.pairs) + mean(s.segments)},
		{"sched.ChannelExercised", "", mean(s.channel)},
	}
	explained := 0.0
	for _, p := range phases {
		if !strings.HasPrefix(p.name, "  ") {
			explained += p.us
		}
	}
	residual := trialUs - explained
	r.set("explore.explained_ratio", ratio(explained, trialUs))
	r.set("explore.residual_us", residual)
	r.note("explore split per trial: %.1f us inside Explore per trial (%d trials); %d trials replayed one at a time:",
		trialUs, trials, len(s.guest))
	showRoadmap := workload == "campaign"
	for _, p := range phases {
		line := fmt.Sprintf("  %-56s %9.1f us %6.1f%%", p.name, p.us, 100*ratio(p.us, trialUs))
		if showRoadmap && p.roadmap != "" {
			line += "   ROADMAP CPU share: " + p.roadmap
		}
		r.notes = append(r.notes, line)
	}
	r.notes = append(r.notes, fmt.Sprintf("  %-56s %9.1f us %6.1f%%", "residual: findIncidental, policy, snapshots, contention", residual, 100*ratio(residual, trialUs)))
	if !withCover {
		r.note("  (cover phases not run: this workload's explorer tracks no coverage)")
	}
}

// selfTimeNotes prints each span name's self time per campaign.
func selfTimeNotes(r *result, spans []span, campaigns float64) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	r.note("span self times per campaign (%d spans):", len(spans))
	for _, n := range names {
		r.notes = append(r.notes, fmt.Sprintf("  %-40s %10.4f s", n, ratio(self[n].Seconds(), campaigns)))
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
