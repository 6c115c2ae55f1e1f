// Command aiacbench is the repository's benchmark: it runs one named
// workload end to end, checks every answer, and prints every metric by name
// and unit. See README.md in this directory for what is measured and why.
//
//	aiacbench -workload vt-table1 -seed 1 -seconds 20 -trace 0   # gated metrics
//	aiacbench -workload vt-table1 -trace 1 -spans spans.jsonl    # per-layer metrics
//	aiacbench -repeat 10 -workload all                           # run-to-run spread
//
// The last line of standard output is one JSON object; everything meant for
// people goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames()+" (or all, with -repeat)")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", refSeconds, "run length the timed window's fixed op count is scaled to")
		traced  = flag.Int("trace", 0, "1: run the traced pass and print the per-layer metrics instead")
		spans   = flag.String("spans", "", "with -trace 1: write the recorded spans to this file, one JSON object a line")
		repeat  = flag.Int("repeat", 0, "run the workload this many times at -seed and print the spread of each end-to-end metric")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *traced < 0 || *traced > 1 || *repeat < 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(repeatRuns(*name, *seed, *seconds, *repeat))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "aiacbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	os.Exit(runOnce(w, *seed, *seconds, *traced == 1, *spans))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runOnce is one benchmark run in this process. The exit code is non-zero
// only when the run could not be made; failed ops are reported in the JSON.
func runOnce(w *workload, seed int64, seconds int, traced bool, spans string) int {
	h, err := newHarness(seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aiacbench: %v\n", err)
		return 1
	}
	defer h.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.cleanup()
		os.Exit(130)
	}()

	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	o := defaultOpts(w, seconds)
	o.traced = traced
	rep, err := runWorkload(h, w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aiacbench: %s: %v\n", w.name, err)
		return 1
	}
	if traced && spans != "" {
		if err := rep.tr.rec.writeFile(spans); err != nil {
			fmt.Fprintf(os.Stderr, "aiacbench: %v\n", err)
			return 1
		}
	}
	rep.print(os.Stderr)
	if err := json.NewEncoder(os.Stdout).Encode(rep.result()); err != nil {
		fmt.Fprintf(os.Stderr, "aiacbench: %v\n", err)
		return 1
	}
	return 0
}

// harness is what one process shares between the set-ups of a run.
type harness struct {
	seed int64
	// root holds every file and directory the run writes; it is removed on
	// every way out. It lives on a memory filesystem when there is one: on
	// this host's disk (ext4, mounted discard) the service's throughput fell
	// to a third over six runs and stayed there, which measures the disk.
	root  string
	memFS bool
	// preseed is how many sealed runs the registry of svc-closed's set-up
	// reps holds before the first of them; seeded is its root once filled.
	preseed int
	seeded  string
	once    sync.Once
}

const memFSDir = "/dev/shm"

func newHarness(seed int64) (*harness, error) {
	h := &harness{seed: seed, preseed: 250}
	pattern := fmt.Sprintf("aiac-bench-%d-*", os.Getpid())
	if root, err := os.MkdirTemp(memFSDir, pattern); err == nil {
		h.root, h.memFS = root, true
	} else {
		root, terr := os.MkdirTemp("", pattern)
		if terr != nil {
			return nil, terr
		}
		h.root = root
		fmt.Fprintf(os.Stderr, "aiacbench: WARNING: %s is not writable (%v); writing under %s, so disk behaviour is in the figures\n", memFSDir, err, root)
	}
	return h, nil
}

// cleanup removes the root. On a signal the program may still be writing
// under it, and a directory that gains a file while it is being emptied stays:
// try again until it is gone.
func (h *harness) cleanup() {
	h.once.Do(func() {
		for range 50 {
			if os.RemoveAll(h.root) == nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}

// seededRegistry returns the registry root every svc-closed set-up rep of
// this run starts on, filling it on first use.
func (h *harness) seededRegistry() (string, error) {
	if h.seeded != "" {
		return h.seeded, nil
	}
	root, err := os.MkdirTemp(h.root, "registry-")
	if err != nil {
		return "", err
	}
	if err := seedRegistry(h, root, h.preseed); err != nil {
		return "", fmt.Errorf("pre-seeding the registry: %w", err)
	}
	h.seeded = root
	return root, nil
}

// runOpts sizes one run. Only tests depart from defaultOpts.
type runOpts struct {
	ops, chunks, warmups int
	traced               bool
}

func defaultOpts(w *workload, seconds int) runOpts {
	ops := int(math.Round(float64(w.ops) * float64(seconds) / refSeconds))
	return runOpts{ops: max(ops, w.clients), chunks: windowChunks, warmups: warmupOps}
}

// window is what the harness keeps of one closed-loop window of ops.
type window struct {
	attempted, failed int
	walls             []float64 // per successful op, seconds
	wallS, cpuS       float64   // of the whole window
	chunkAllocs       []float64 // per call of run: bytes allocated per op
	mallocs           uint64
	gcCycles          uint32
	gcPauseNs         uint64
	models            []float64 // per successful op, model seconds
	counts            opCounts
	errs              []error
}

// runReport is one run of one workload.
type runReport struct {
	workload      *workload
	seed          int64
	memFS         bool
	setups        []float64
	setupErrs     []error
	other         window // warm-up and deep ops: counted, not measured
	plain, traced window
	tr            *tracer
	probes        map[string]float64
	peakRSSMB     float64
}

// runWorkload makes one run. The untraced pass cuts the timed window into
// chunks and makes setupsPerChunk set-up reps before each: this host slows by
// 10-40% for minutes at a time, so the set-up reps are spread over the same
// stretch of time as the ops and the fastest of each sees the same weather.
// The traced pass makes no reps; it runs an untraced and a traced
// half-window, then the deep op and the probes.
func runWorkload(h *harness, w *workload, o runOpts) (*runReport, error) {
	rep := &runReport{workload: w, seed: h.seed, memFS: h.memFS}
	if w.service() && !o.traced {
		// Fill the set-up reps' registry outside any timed set-up.
		if _, err := h.seededRegistry(); err != nil {
			return nil, err
		}
	}
	s, err := w.open(h, false)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if err := s.prepare(o.ops); err != nil {
		return nil, err
	}
	for i := range o.warmups {
		rep.other.add(s.op(i%o.ops, nil))
	}
	if o.traced {
		half := max(o.ops/2, 1)
		rep.tr = newTracer()
		rep.plain.run(s, w.clients, 0, half, nil)
		rep.traced.run(s, w.clients, 0, half, rep.tr)
		rep.other.add(s.deep(rep.tr))
		rep.probes = runProbes(h, w, rep.tr)
		return rep, nil
	}
	chunks := max(o.chunks, 1)
	for c := range chunks {
		for range setupsPerChunk {
			rep.setup(h, w)
		}
		from, to := c*o.ops/chunks, (c+1)*o.ops/chunks
		rep.plain.run(s, w.clients, from, to-from, nil)
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	rep.peakRSSMB = float64(ru.Maxrss) * 1024 / 1e6
	return rep, nil
}

// setup is one set-up rep: the workload built from nothing until it can take
// its first op, and torn down. The op itself is left out: on the solver
// workloads it is a hundred times the set-up, and a figure that is 99% op
// says what op_wall_s_min says, with a fraction of the samples.
func (r *runReport) setup(h *harness, w *workload) {
	t0 := time.Now()
	s, err := w.open(h, true)
	if err != nil {
		r.setupErrs = append(r.setupErrs, err)
		return
	}
	s.close()
	r.setups = append(r.setups, time.Since(t0).Seconds())
}

func (w *window) add(r opResult) {
	w.attempted++
	if r.err != nil {
		w.failed++
		w.errs = append(w.errs, r.err)
	}
}

// run adds ops [from, from+n) to the window, in a closed loop: each of the
// clients starts its next op when its previous one has been checked. The
// collector runs first, so that a chunk starts from the same heap whatever
// ran before it.
func (w *window) run(s session, clients, from, n int, tr *tracer) {
	results := make([]opResult, n)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < n; i += clients {
				results[i] = s.op(from+i, tr)
			}
		}()
	}
	wg.Wait()
	w.wallS += time.Since(t0).Seconds()
	w.cpuS += cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	if n > 0 {
		w.chunkAllocs = append(w.chunkAllocs, float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
	}
	w.mallocs += after.Mallocs - before.Mallocs
	w.gcCycles += after.NumGC - before.NumGC
	w.gcPauseNs += after.PauseTotalNs - before.PauseTotalNs

	for _, r := range results {
		w.add(r)
		if r.err != nil {
			continue
		}
		w.walls = append(w.walls, r.wall)
		w.models = append(w.models, r.modelTime)
		w.counts.add(r.counts)
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
