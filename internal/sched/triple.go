package sched

import (
	"math/rand"

	"snowboard/internal/corpus"
	"snowboard/internal/detect"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

// Three-thread exploration — the §6 extension. A TripleTest runs one writer
// and two readers concurrently; the scheduling hint is a write+2-read PMC
// triple, and Algorithm 2's machinery (performed/coming accesses, flags,
// liveness) applies unchanged since the policy is thread-count agnostic.

// TripleTest is a three-thread concurrent test.
type TripleTest struct {
	Writer  *corpus.Prog
	ReaderA *corpus.Prog
	ReaderB *corpus.Prog
	Hint    *pmc.Triple
	Pair    pmc.TriplePair
}

// ExploreTriple runs up to Trials interleaving trials of the triple.
func (x *Explorer) ExploreTriple(tt TripleTest) Outcome {
	out := Outcome{ExercisedTrial: -1, ExposedTrial: -1, IssueTrial: make(map[string]int)}
	trials := x.Trials
	if trials <= 0 {
		trials = 64
	}

	var currentPMCs []pmc.PMC
	if tt.Hint != nil {
		currentPMCs = append(currentPMCs,
			pmc.PMC{Write: tt.Hint.Write, Read: tt.Hint.ReadA},
			pmc.PMC{Write: tt.Hint.Write, Read: tt.Hint.ReadB},
		)
	}
	flags := make(map[sig]bool)
	seen := make(map[string]bool)
	var tr trace.Trace
	progs := []*corpus.Prog{tt.Writer, tt.ReaderA, tt.ReaderB}

	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(x.Seed + int64(trial)))
		policy := NewSnowboardPolicy(rng, currentPMCs, flags)
		res := x.Env.RunMany(progs, policy, &tr)
		x.Env.M.SetTrace(nil)
		out.Trials = trial + 1
		out.Switches += policy.Switches
		out.Steps += res.Steps

		if tt.Hint != nil && !out.Exercised {
			a := pmc.PMC{Write: tt.Hint.Write, Read: tt.Hint.ReadA}
			b := pmc.PMC{Write: tt.Hint.Write, Read: tt.Hint.ReadB}
			if ChannelExercised(&tr, &a) && ChannelExercised(&tr, &b) {
				out.Exercised = true
				out.ExercisedTrial = trial
			}
		}

		in := detect.TrialInput{
			Console:  res.Console,
			Trace:    &tr,
			Hung:     res.Hung,
			Deadlock: res.Deadlock,
		}
		if x.Fsck != nil {
			in.PostScan = x.Fsck()
		}
		issues := detect.Analyze(in, x.Detect)
		var fresh []detect.Issue
		for _, is := range issues {
			if !seen[is.ID()] {
				seen[is.ID()] = true
				out.Issues = append(out.Issues, is)
				out.IssueTrial[is.ID()] = trial
				fresh = append(fresh, is)
			}
		}
		if len(fresh) > 0 && out.ExposedTrial < 0 {
			out.ExposedTrial = trial
		}
		crashed := false
		for _, is := range fresh {
			switch is.Kind {
			case detect.KindPanic, detect.KindFSError, detect.KindIOError, detect.KindDeadlock:
				crashed = true
			}
		}
		if crashed {
			break
		}
	}
	return out
}
