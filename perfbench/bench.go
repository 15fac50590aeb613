package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"snowboard/internal/core"
	"snowboard/internal/obs"
	"snowboard/internal/sched"
	"snowboard/internal/store"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// Per-trial sample sizes of the traced run.
const (
	localSampleTests  = 4  // tests explored and replayed after each traced campaign
	localSampleTrials = 4  // trials replayed per sampled test
	fleetSampleTests  = 32 // tests of one tenant's campaign, after the window
)

// outcome is one finished campaign as its submitter sees it.
type outcome struct {
	seed   int64
	dur    time.Duration // submit to final report
	report *core.Report
	err    error
}

// window is what one measured stretch of a run observed.
type window struct {
	durs      []float64     // campaign wall seconds, submit to final report
	cpu       []float64     // campaign CPU seconds; a fleet pair's split evenly
	cpuTotal  time.Duration // process CPU time of the units
	reports   []*core.Report
	seeds     []int64       // campaign seed of each report
	tests     int           // concurrent tests executed
	execTime  time.Duration // local: stage-4 time; fleet: wall time of the units
	alloc     uint64        // bytes allocated while units ran
	peaks     []float64     // highest live-and-unswept heap sampled in each unit, bytes
	gcCycles  uint32
	gcPauseNs uint64

	// Traced windows only.
	obs      map[string]int64 // summed obs deltas over units: counters and histogram sums
	sample   trialSample
	submitMs []float64
	rtt      *rttLog
}

// bench is one invocation: a workload, its seed and its checks.
type bench struct {
	workload string
	seed     int64
	chk      *checker
	rec      *recorder    // traced window only
	heap     *heapSampler // while a window is measured
	units    int          // units started, for trace ids
}

// setup runs the untimed warm-up unit setupReps times and returns each
// set-up's CPU seconds and wall seconds. A set-up is everything before the
// first timed campaign: kernel boot and snapshot, worker-env clones, for
// fleet the store, registry and listener, and one warm-up unit that lets
// caches and the heap reach steady state.
func (b *bench) setup() (cpu, wall []float64) {
	for k := 0; k < setupReps; k++ {
		t, c := time.Now(), cpuTime()
		b.runUnit(warmUnit(b.workload), &window{}, false)
		cpu = append(cpu, (cpuTime() - c).Seconds())
		wall = append(wall, time.Since(t).Seconds())
	}
	return cpu, wall
}

// measure runs units from a fresh schedule until d has passed.
func (b *bench) measure(d time.Duration, traced bool) *window {
	w := &window{}
	if traced {
		w.obs = make(map[string]int64)
		w.rtt = newRTTLog()
	}
	s := newSchedule(b.workload, b.seed)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.heap = startHeapSampler()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		b.runUnit(s.next(), w, traced)
	}
	b.heap.stop()
	b.heap = nil
	runtime.ReadMemStats(&ms1)
	w.gcCycles = ms1.NumGC - ms0.NumGC
	w.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	return w
}

// runUnit runs one unit, checks its reports and folds it into w.
func (b *bench) runUnit(u unit, w *window, traced bool) {
	b.units++
	tr := fmt.Sprintf("%s-%d-u%d", b.workload, b.units, u.Index)
	var rec *recorder
	if traced {
		rec = b.rec
	}
	var before obs.Snapshot
	if traced {
		before = obs.Default.Snapshot()
	}
	a0 := allocated()
	c0 := cpuTime()
	if b.heap != nil {
		b.heap.take()
	}
	var (
		outs  []outcome
		wall  time.Duration
		p     *core.Pipeline
		tests []sched.ConcurrentTest
	)
	switch b.workload {
	case "fleet":
		var rtt *rttLog
		if traced {
			rtt = w.rtt
		}
		fe, err := newFleetEnv(scratchDir, rtt)
		if err != nil {
			for _, s := range u.Seeds {
				b.chk.campaign(s, nil, err)
			}
			return
		}
		root := rec.start("fleet.pair", 0, tr)
		var submit *[]float64
		if traced {
			submit = &w.submitMs
		}
		outs, wall = fe.submitPair(u, rec, root, tr, submit)
		rec.end(root)
		if err := fe.close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: fleet env close: %v\n", err)
		}
	default:
		var o outcome
		o, p, tests = runLocal(b.workload, u.Seeds[0], rec, tr)
		outs, wall = []outcome{o}, o.dur
	}
	w.alloc += allocated() - a0
	cpu := cpuTime() - c0
	w.cpuTotal += cpu
	if b.heap != nil {
		w.peaks = append(w.peaks, float64(b.heap.take()))
	}
	if traced {
		addDelta(w.obs, obs.Default.Snapshot().Sub(before))
	}
	for _, o := range outs {
		b.chk.campaign(o.seed, o.report, o.err)
		if o.err != nil || o.report == nil {
			continue
		}
		w.durs = append(w.durs, o.dur.Seconds())
		w.cpu = append(w.cpu, cpu.Seconds()/float64(len(outs)))
		w.reports = append(w.reports, o.report)
		w.seeds = append(w.seeds, o.seed)
		if d := o.report.Distributed; d != nil {
			w.tests += d.Reported
		} else {
			w.tests += o.report.TestedTests
			w.execTime += o.report.ExecTime
		}
	}
	if b.workload == "fleet" {
		w.execTime += wall
	}
	if traced && p != nil {
		// The sample runs after the campaign's own spans and obs deltas
		// closed, so it inflates neither.
		sid := rec.start("sample", 0, tr)
		opts := localOptions(b.workload, u.Seeds[0])
		if tests == nil {
			// RunFeedback keeps its composed tests to itself: sample a
			// one-shot draw over the same corpus and PMC set instead.
			tests = p.GenerateTests(p.NewReport(), opts.TestBudget)
		}
		localSampler(p, opts).run(tests, localSampleTests, localSampleTrials, rec, sid, tr, &w.sample)
		rec.end(sid)
	}
}

// fleetSample builds one tenant's campaign locally, exactly as the control
// plane generates it, and samples its tests with the executor's settings.
func (b *bench) fleetSample(w *window) error {
	spec := fleetSpec(poolUnit(b.workload, 0).Seeds[0])
	opts, err := spec.BuildOptions("")
	if err != nil {
		return err
	}
	tr := "fleet-sample"
	sid := b.rec.start("sample", 0, tr)
	defer b.rec.end(sid)
	p := core.NewPipeline(opts)
	r := p.NewReport()
	p.BuildCorpus(r)
	if err := p.ProfileAll(r); err != nil {
		return err
	}
	p.IdentifyPMCs(r)
	tests := p.GenerateTests(r, opts.TestBudget)
	fleetSampler(p, opts.Trials).run(tests, fleetSampleTests, opts.Trials, b.rec, sid, tr, &w.sample)
	return nil
}

// storeRerun re-runs one campaign of w with an artifact store attached and
// checks it against the in-memory report (local workloads only). It picks
// the lowest seed whose report carries triage bundles, so the bundles are
// decoded too; the warm-up seed when none does.
func (b *bench) storeRerun(w *window) int64 {
	seed := int64(warmSeed)
	best := int64(0)
	for i, rep := range w.reports {
		if hasBundles(rep) && (best == 0 || w.seeds[i] < best) {
			best = w.seeds[i]
		}
	}
	if best != 0 {
		seed = best
	}
	dir, err := os.MkdirTemp(scratchDir, "verify-")
	if err != nil {
		b.chk.storeRerun(seed, nil, err, nil)
		return seed
	}
	defer os.RemoveAll(dir)
	opts := localOptions(b.workload, seed)
	opts.StateDir = dir
	r, err := core.Run(opts)
	var st *store.Store
	if err == nil {
		st, err = store.Open(dir)
	}
	b.chk.storeRerun(seed, r, err, st)
	return seed
}

func hasBundles(r *core.Report) bool {
	for _, rec := range r.Issues {
		if rec.Triage != nil {
			return true
		}
	}
	return false
}

// addDelta folds an obs delta into acc: counters by name, histogram sums
// and counts under "<name>.sum" and "<name>.count".
func addDelta(acc map[string]int64, d obs.Snapshot) {
	for k, v := range d.Counters {
		acc[k] += v
	}
	for k, h := range d.Histograms {
		acc[k+".sum"] += h.Sum
		acc[k+".count"] += h.Count
	}
}

// allocated returns the bytes allocated on the heap since the process
// started.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler polls the heap every few milliseconds and keeps the highest
// reading since the last take.
type heapSampler struct {
	peak atomic.Uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
			}
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// take returns the highest reading since the previous take and starts
// over.
func (h *heapSampler) take() uint64 { return h.peak.Swap(0) }

// stop returns once the poller has exited.
func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}
