package detect

import (
	"snowboard/internal/obs"
	"snowboard/internal/trace"
)

// Oracle metrics: raw finding counts across all trials, process-wide.
var (
	mReports = obs.C(obs.MDetectReports)
	mHarmful = obs.C(obs.MDetectHarmful)
)

// Options toggles individual oracles.
type Options struct {
	Console   bool
	Races     bool
	TornReads bool
}

// DefaultOptions enables every oracle.
func DefaultOptions() Options {
	return Options{Console: true, Races: true, TornReads: true}
}

// TrialInput is everything a trial hands to the oracles.
type TrialInput struct {
	Console  []string     // guest console lines (includes fault oopses)
	Trace    *trace.Trace // full access trace of the trial
	PostScan []string     // host-side post-mortem messages (e.g. fsck)
	Hung     bool
	Deadlock bool
}

// Analyze runs the enabled oracles over one trial and returns deduplicated,
// classified issues.
func Analyze(in TrialInput, opt Options) []Issue {
	var out []Issue
	seen := make(map[string]bool)
	add := func(is Issue) {
		if !seen[is.ID()] {
			seen[is.ID()] = true
			out = append(out, is)
		}
	}

	if opt.Console {
		last := lastAccessByThread(in.Trace)
		for _, is := range CheckConsole(in.Console, last) {
			add(is)
		}
		for _, is := range CheckConsole(in.PostScan, last) {
			add(is)
		}
	}
	if opt.Races && in.Trace != nil {
		for _, r := range FindRacesHB(in.Trace) {
			add(ClassifyRace(r))
		}
	}
	if opt.TornReads && in.Trace != nil {
		for _, t := range FindTornReads(in.Trace) {
			is := ClassifyRace(RaceReport{
				Write: trace.Access{Ins: t.WriteIns, Kind: trace.Write, Addr: t.Addr, Size: 1},
				Read:  trace.Access{Ins: t.ReadIns, Kind: trace.Read, Addr: t.Addr, Size: 1, Thread: 1},
			})
			is.Torn = true
			is.Desc = "Torn read: " + is.Desc
			add(is)
		}
	}
	if in.Deadlock {
		add(Issue{Kind: KindDeadlock, Desc: "deadlock: all threads blocked"})
	}
	if in.Hung {
		add(Issue{Kind: KindHang, Desc: "hang: step budget exhausted"})
	}
	mReports.Add(int64(len(out)))
	for _, is := range out {
		if is.Harmful {
			mHarmful.Inc()
		}
		// Flight-record crash-level findings only: exploration breaks off on
		// a crash, so these stay bounded, while benign races show up in
		// nearly every trial and would flood the ring.
		switch is.Kind {
		case KindPanic, KindFSError, KindIOError, KindDeadlock:
			obs.Emit(obs.EvRaceFound, obs.A("kind", is.Kind.String()),
				obs.A("harmful", is.Harmful), obs.A("desc", is.Desc))
		}
	}
	return out
}

// lastAccessByThread maps each thread to the instruction of its final
// recorded access, used to attribute faults.
func lastAccessByThread(tr *trace.Trace) map[int]trace.Ins {
	out := make(map[int]trace.Ins)
	if tr == nil {
		return out
	}
	for i, n := 0, tr.Len(); i < n; i++ {
		out[tr.ThreadAt(i)] = tr.InsAt(i)
	}
	return out
}

// Harmless reports whether every issue found is a known-benign one, useful
// for tests asserting that a trial surfaced nothing alarming.
func Harmless(issues []Issue) bool {
	for _, is := range issues {
		if is.Harmful {
			return false
		}
		if is.Kind == KindPanic || is.Kind == KindDeadlock {
			return false
		}
	}
	return true
}
