package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// spreadLimit is the run-to-run (max-min)/median above which -repeat fails.
const spreadLimit = 0.10

// repeatRuns makes n runs of one workload (or of each, for "all"), every run
// a fresh process of this binary — peak RSS and the collector's state belong
// to a process — and all on the same seed, so that what differs between them
// is the host. It prints the spread of every end-to-end metric and returns a
// non-zero exit code when a spread passes spreadLimit, an op failed, or the
// two Table-1 workloads disagree on the model time.
func repeatRuns(name string, seed int64, seconds, n int) int {
	var ws []*workload
	if name == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else if w := findWorkload(name); w != nil {
		ws = append(ws, w)
	} else {
		fmt.Fprintf(os.Stderr, "aiacbench: unknown workload %q (want all or one of %s)\n", name, workloadNames())
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "aiacbench: %v\n", err)
		return 1
	}

	bad := false
	values := map[string]map[string][]float64{} // workload -> metric -> one value a run
	for _, w := range ws {
		values[w.name] = map[string][]float64{}
		for i := range n {
			res, err := childRun(self, w.name, seed, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aiacbench: %s run %d: %v\n", w.name, i+1, err)
				return 1
			}
			if res.Failed > 0 {
				fmt.Fprintf(os.Stderr, "aiacbench: %s run %d: %d of %d ops failed\n", w.name, i+1, res.Failed, res.Attempted)
				bad = true
			}
			for _, m := range endToEnd {
				values[w.name][m.name] = append(values[w.name][m.name], res.Metrics[m.name].Value)
			}
		}
	}

	fmt.Printf("| workload | metric | unit | min | median | max | (max-min)/median | IQR/median |\n|---|---|---|---|---|---|---|---|\n")
	for _, w := range ws {
		for _, m := range endToEnd {
			v := values[w.name][m.name]
			lo, hi, med := slices.Min(v), slices.Max(v), percentile(v, 50)
			spread := ratio(hi-lo, med)
			iqr := ratio(percentile(v, 75)-percentile(v, 25), med)
			flag := ""
			if spread > spreadLimit {
				flag, bad = " **over**", true
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.6g | %.2f%%%s | %.2f%% |\n",
				w.name, m.name, m.unit, lo, med, hi, 100*spread, flag, 100*iqr)
		}
	}
	if seq, par := values["vt-table1"], values["vt-table1-par"]; seq != nil && par != nil {
		if a, b := seq["model_time_s"][0], par["model_time_s"][0]; a != b {
			fmt.Printf("model_time_s differs between vt-table1 (%v) and vt-table1-par (%v)\n", a, b)
			bad = true
		}
	}
	if bad {
		return 1
	}
	return 0
}

// childRun is one untraced run in a process of its own.
func childRun(self, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	res := &result{}
	if err := json.Unmarshal(last, res); err != nil {
		return nil, fmt.Errorf("last line of output is not a result: %w", err)
	}
	return res, nil
}
