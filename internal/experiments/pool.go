package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"aiac/internal/engine"
)

// The experiments are dozens of independent engine executions: each one
// owns a private vtime.Scheduler, a fresh grid.Serializer and per-run
// seeded rngs, so nothing is shared between runs but read-only inputs
// (problems, clusters, load traces). The pool below fans those executions
// across cores. Determinism is preserved by construction: every run is a
// pure function of its Config, and results are collected by case index,
// never by completion order — a parallel suite is bit-identical to a
// serial one.

var poolWorkers atomic.Int64 // 0 means "use GOMAXPROCS"

// SetWorkers sets how many engine executions the experiment drivers run
// concurrently and returns the previous setting. n <= 0 restores the
// default (GOMAXPROCS at the time of use); n == 1 forces fully serial
// execution.
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(poolWorkers.Swap(int64(n)))
}

func numWorkers() int {
	if n := int(poolWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// forEach evaluates fn(0), ..., fn(n-1) on up to numWorkers() goroutines
// and returns the results in index order. Indices are claimed from an
// atomic counter (work stealing: a goroutine stuck on a long run does not
// hold back the others). If any fn panics, forEach re-panics with the
// lowest-index panic value after all workers have drained — deterministic
// even when several cases fail at once.
func forEach[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	w := numWorkers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	panics := make([]any, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
						}
					}()
					out[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return out
}

// runAll executes the configurations on the worker pool and returns their
// results in configuration order.
func runAll(cfgs []engine.Config) []*engine.Result {
	return forEach(len(cfgs), func(i int) *engine.Result { return run(cfgs[i]) })
}

// runTasks executes independent closures on the worker pool. It is the
// fan-out primitive for heterogeneous work (e.g. FullHorizon's two windowed
// solves and its sequential reference), where each closure writes its own
// captured result variables.
func runTasks(tasks ...func()) {
	forEach(len(tasks), func(i int) struct{} {
		tasks[i]()
		return struct{}{}
	})
}
