// Command benchjson converts `go test -bench` output into a JSON record so
// the performance trajectory of the repository can be tracked across PRs
// (BENCH_1.json, BENCH_2.json, ...).
//
// Usage:
//
//	go test -run NONE -bench . -benchmem . | go run ./cmd/benchjson -o BENCH_1.json -note "PR 1"
//	go test -run NONE -bench . -benchmem . | go run ./cmd/benchjson -diff BENCH_1.json
//
// It reads the benchmark text on stdin (or from -i), keeps the metadata
// lines (goos, goarch, pkg, cpu) and every benchmark result line, and
// writes one JSON document. Unrecognized lines are ignored, so the input
// may be a full `go test` transcript.
//
// With -diff it instead compares the input against a previously recorded
// JSON document and prints one line per benchmark with old/new ns/op, the
// new/old ratio, and the relative change (negative = faster now). -o may
// still be given to record the new document in the same invocation.
// -fail-above/-fail-below turn the diff into a gate: the exit status is 1
// when any benchmark's ratio breaches the threshold, so `make bench-par`
// and CI can enforce a performance envelope.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name with any -N GOMAXPROCS suffix removed.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (1 when absent).
	Procs int `json:"procs"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported ns/op.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present with -benchmem (nil otherwise).
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
	// Extra holds any other "value unit" pairs (custom b.ReportMetric units).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Document is the emitted JSON root. NumCPU and GoMaxProcs record the
// recording host's parallel capacity, so that a committed baseline says what
// it was measured on.
type Document struct {
	Note       string      `json:"note,omitempty"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	NumCPU     int         `json:"num_cpu,omitempty"`
	GoMaxProcs int         `json:"gomaxprocs,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	var (
		inPath    = flag.String("i", "", "input file (default stdin)")
		outPath   = flag.String("o", "", "output file (default stdout)")
		note      = flag.String("note", "", "free-form note stored in the document")
		diffPath  = flag.String("diff", "", "previously recorded JSON document to compare the input against")
		failAbove = flag.Float64("fail-above", 0, "with -diff: exit 1 if any new/old ns/op ratio exceeds this (e.g. 1.25 = fail on >25% regression; 0 disables)")
		failBelow = flag.Float64("fail-below", 0, "with -diff: exit 1 if any new/old ns/op ratio falls below this (guards against suspicious speedups / broken benchmarks; 0 disables)")
	)
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		in = f
	}
	doc, err := Parse(in)
	if err != nil {
		fatalf("%v", err)
	}
	doc.Note = *note
	doc.NumCPU = runtime.NumCPU()
	doc.GoMaxProcs = runtime.GOMAXPROCS(0)
	if len(doc.Benchmarks) == 0 {
		fatalf("no benchmark lines found in input")
	}
	if *diffPath != "" {
		old, err := readDoc(*diffPath)
		if err != nil {
			fatalf("%v", err)
		}
		breached := printDiff(os.Stdout, *diffPath, old, doc, *failAbove, *failBelow)
		if *outPath != "" {
			writeDoc(*outPath, doc)
		}
		if len(breached) > 0 {
			fatalf("%d benchmark(s) breached the ratio gate [below %g, above %g]: %s",
				len(breached), *failBelow, *failAbove, strings.Join(breached, ", "))
		}
		return
	}
	if *outPath == "" {
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		os.Stdout.Write(append(blob, '\n'))
		return
	}
	writeDoc(*outPath, doc)
}

func writeDoc(path string, doc *Document) {
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), path)
}

// readDoc loads a document previously written by this tool.
func readDoc(path string) (*Document, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &doc, nil
}

// printDiff prints one line per benchmark of the new document with the old
// ns/op beside it, plus the new/old ratio (0.5 = twice as fast). Benchmarks
// only present on one side are reported too, so a renamed or deleted
// benchmark cannot silently vanish from the record. When failAbove or
// failBelow is non-zero it returns the names whose ratio breached the gate;
// one-sided benchmarks never breach (they have no ratio).
func printDiff(w io.Writer, oldName string, old, cur *Document, failAbove, failBelow float64) []string {
	oldNs := make(map[string]float64, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldNs[b.Name] = b.NsPerOp
	}
	note := old.Note
	if old.NumCPU > 0 {
		note = fmt.Sprintf("%s, %d cpus", note, old.NumCPU)
	}
	fmt.Fprintf(w, "vs %s (%s)\n", oldName, note)
	fmt.Fprintf(w, "%-52s %14s %14s %7s %9s\n", "benchmark", "old ns/op", "new ns/op", "ratio", "delta")
	var breached []string
	seen := make(map[string]bool, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		seen[b.Name] = true
		prev, ok := oldNs[b.Name]
		if !ok {
			fmt.Fprintf(w, "%-52s %14s %14.0f %7s %9s\n", b.Name, "-", b.NsPerOp, "-", "new")
			continue
		}
		ratioCol, delta := "n/a", "n/a"
		if prev > 0 {
			ratio := b.NsPerOp / prev
			ratioCol = fmt.Sprintf("%.3f", ratio)
			delta = fmt.Sprintf("%+.1f%%", 100*(ratio-1))
			if (failAbove > 0 && ratio > failAbove) || (failBelow > 0 && ratio < failBelow) {
				breached = append(breached, b.Name)
			}
		}
		fmt.Fprintf(w, "%-52s %14.0f %14.0f %7s %9s\n", b.Name, prev, b.NsPerOp, ratioCol, delta)
	}
	for _, b := range old.Benchmarks {
		if !seen[b.Name] {
			fmt.Fprintf(w, "%-52s %14.0f %14s %7s %9s\n", b.Name, b.NsPerOp, "-", "-", "gone")
		}
	}
	return breached
}

// Parse reads a `go test -bench` transcript and extracts the document.
func Parse(r io.Reader) (*Document, error) {
	doc := &Document{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	return doc, sc.Err()
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkAIACSolve-4   20   9403295 ns/op   436405 B/op   2776 allocs/op
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Procs: 1}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil && p > 0 {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	// the rest is "value unit" pairs
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
			sawNs = true
		case "B/op":
			v := int64(val)
			b.BytesPerOp = &v
		case "allocs/op":
			v := int64(val)
			b.AllocsPerOp = &v
		default:
			if b.Extra == nil {
				b.Extra = map[string]float64{}
			}
			b.Extra[unit] = val
		}
	}
	return b, sawNs
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
