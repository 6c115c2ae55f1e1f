// Flowtrace renders the execution flows of the paper's Figures 1-4 as ASCII
// Gantt charts: SISC (idle gaps at every synchronous exchange), SIAC
// (partially overlapped sends), the general AIAC (no idle time), and the
// mutual-exclusion AIAC variant actually used by the paper (sends skipped
// while the previous one is in flight).
package main

import (
	"fmt"

	"aiac"
)

func main() {
	params := aiac.BrusselatorParams(16, 0.05)
	params.T = 0.5
	prob := aiac.NewBrusselator(params)

	// Two machines of different speeds on a slow link, like the sketches.
	cluster := aiac.Homogeneous(2)
	cluster.Nodes[1].Speed *= 0.55
	cluster.Intra = aiac.Link{Latency: 2e-3, Bandwidth: 2e6}

	figs := []struct {
		title string
		mode  aiac.Mode
	}{
		{"Figure 1 — SISC: synchronous iterations, synchronous communications", aiac.SISC},
		{"Figure 2 — SIAC: synchronous iterations, asynchronous communications", aiac.SIAC},
		{"Figure 3 — AIAC (general): fully asynchronous", aiac.AIACGeneral},
		{"Figure 4 — AIAC (variant): asynchronous with send mutual exclusion", aiac.AIAC},
	}
	for _, f := range figs {
		log := &aiac.TraceLog{}
		_, err := aiac.Solve(aiac.Config{
			Mode:       f.mode,
			P:          2,
			Problem:    prob,
			Cluster:    cluster,
			Tol:        1e-300, // unreachable: trace a fixed window
			MaxIter:    8,
			Trace:      log,
			TraceIters: 8,
			Seed:       3,
		})
		if err != nil {
			panic(err)
		}
		fmt.Println(f.title)
		fmt.Print(aiac.Gantt(log, aiac.GanttConfig{Width: 110}))
		fmt.Println()
	}
}
