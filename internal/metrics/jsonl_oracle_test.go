package metrics_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"aiac/internal/engine"
	"aiac/internal/metrics"
	"aiac/internal/obs"
)

// goldenSpecs are the runs whose exports the oracle tests and FuzzReadRun
// start from: load balancing under faults with a trace, ring detection on
// heat, SISC on Poisson, and the quick spec of the service tests.
var goldenSpecs = map[string]obs.RunSpec{
	"lb-faults-trace": {N: 32, T: 0.5, Tol: 1e-5, Cluster: "heterogeneous", LB: true, LBPeriod: 5,
		Faults: "drop=0.05,dup=0.02,reorder=0.02", Trace: true},
	"ring-heat":    {Problem: "heat", N: 32, Tol: 1e-6, Ring: true},
	"sisc-poisson": {Mode: "sisc", Problem: "poisson", N: 32, Tol: 1e-6},
	"quick":        {N: 16, T: 0.2, Tol: 1e-4},
}

// goldenRuns records each golden spec's run as its sink holds it at the end.
func goldenRuns(tb testing.TB) map[string]*metrics.Run {
	tb.Helper()
	runs := map[string]*metrics.Run{}
	for name, spec := range goldenSpecs {
		spec.Name = name
		cfg, err := spec.BuildConfig()
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := engine.Run(cfg); err != nil {
			tb.Fatal(err)
		}
		runs[name] = cfg.Metrics.Snapshot()
	}
	return runs
}

func oracleSample(node int, sm metrics.NodeSample) ([]byte, error) {
	return json.Marshal(metrics.LineSample{Type: "sample", Node: node, NodeSample: sm})
}

func oracleEvent(ev metrics.Event) ([]byte, error) {
	return json.Marshal(metrics.LineEvent{Type: "event", Event: ev})
}

// oracleExport is the export as encoding/json writes every line of it, the
// writer before sample and event lines were appended.
func oracleExport(tb testing.TB, r *metrics.Run) []byte {
	tb.Helper()
	var b bytes.Buffer
	line := func(l []byte, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		b.Write(l)
		b.WriteByte('\n')
	}
	line(metrics.ManifestLine(r.Manifest), nil)
	for node, row := range r.Samples {
		for _, sm := range row {
			line(oracleSample(node, sm))
		}
	}
	for _, ev := range r.Events {
		line(oracleEvent(ev))
	}
	line(r.RuntimeLine(), nil)
	return b.Bytes()
}

func writeJSONL(tb testing.TB, r *metrics.Run) []byte {
	tb.Helper()
	var b bytes.Buffer
	if err := r.WriteJSONL(&b); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

func checkSample(t *testing.T, node int, sm metrics.NodeSample) {
	t.Helper()
	want, err := oracleSample(node, sm)
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.SampleLine(node, sm); !bytes.Equal(got, want) {
		t.Fatalf("sample line\n got %s\nwant %s", got, want)
	}
}

func checkEvent(t *testing.T, ev metrics.Event) {
	t.Helper()
	want, err := oracleEvent(ev)
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.EventLine(ev); !bytes.Equal(got, want) {
		t.Fatalf("event line\n got %s\nwant %s", got, want)
	}
}

// TestLinesMatchEncodingJSON: every sample and event line of the golden runs,
// and every export, is what encoding/json writes.
func TestLinesMatchEncodingJSON(t *testing.T) {
	for name, run := range goldenRuns(t) {
		t.Run(name, func(t *testing.T) {
			if len(run.Events) == 0 {
				t.Fatal("the run recorded no event")
			}
			for node, row := range run.Samples {
				for _, sm := range row {
					checkSample(t, node, sm)
				}
			}
			for _, ev := range run.Events {
				checkEvent(t, ev)
			}
			if got, want := writeJSONL(t, run), oracleExport(t, run); !bytes.Equal(got, want) {
				t.Fatal("WriteJSONL differs from the encoding/json export")
			}
		})
	}
}

// TestLinesMatchEncodingJSONOnEdgeValues: the float format where it switches
// between plain digits and an exponent, signed zero, subnormals, the
// extremes of each integer field, and strings that encoding/json escapes.
func TestLinesMatchEncodingJSONOnEdgeValues(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125,
		1e-6, math.Nextafter(1e-6, 0), 1e-7, 9.999999e-7, -1e-6, -1e-7,
		1e20, 1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1.5e300,
		5e-324, 1e-310, 2.2250738585072014e-308, 1e-100, -2.5e-9,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	ints := []int{0, 1, -1, math.MaxInt, math.MinInt}
	uints := []uint64{0, 1, math.MaxUint64}
	for i, f := range floats {
		n := ints[i%len(ints)]
		u := uints[i%len(uints)]
		checkSample(t, n, metrics.NodeSample{
			T: f, Iter: n, Residual: -f, Count: -n, Queue: n, HaloAge: f, IdleFrac: f,
			LBPending: n, MsgsSent: u, MsgsRecv: u, Faults: u, Work: f, Busy: -f,
		})
		checkEvent(t, metrics.Event{T: f, Node: n, Name: "conv"})
	}
	var ctl strings.Builder
	for c := 0; c < 0x20; c++ {
		ctl.WriteByte(byte(c))
	}
	ctl.WriteByte(0x7f)
	for _, s := range []string{
		"", "plain", `<b>&amp;</b>`, "  ", "a b c", ctl.String(),
		`"quoted" \back\slash/`, "\xff", "ok\xfe\xffok", "\xe2\x80", "\xe2\x80\xa8x",
		"é€😀", "\xed\xa0\x80", "tab\there\r\nnew",
	} {
		checkEvent(t, metrics.Event{T: 1, Node: -1, Name: s, Detail: s})
		checkEvent(t, metrics.Event{Name: "lb", Detail: s})
	}
}

// TestNonFiniteValuesKeepFailing: JSON has no NaN or infinity. WriteJSONL
// returns an error for one, and SampleLine and EventLine, which are only
// handed a sink's finite values, panic.
func TestNonFiniteValuesKeepFailing(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		samples := []metrics.NodeSample{{T: f}, {Residual: f}, {HaloAge: f}, {IdleFrac: f}, {Work: f}, {Busy: f}}
		for _, sm := range samples {
			run := &metrics.Run{Manifest: metrics.Manifest{P: 1}, Samples: [][]metrics.NodeSample{{sm}}}
			if err := run.WriteJSONL(&bytes.Buffer{}); err == nil {
				t.Fatalf("WriteJSONL wrote the sample %+v", sm)
			}
			if _, err := metrics.AppendSample(nil, 0, sm); err == nil {
				t.Fatalf("appended the sample %+v", sm)
			}
			mustPanic(t, func() { metrics.SampleLine(0, sm) })
		}
		ev := metrics.Event{T: f, Name: "conv"}
		if err := (&metrics.Run{Events: []metrics.Event{ev}}).WriteJSONL(&bytes.Buffer{}); err == nil {
			t.Fatalf("WriteJSONL wrote the event %+v", ev)
		}
		mustPanic(t, func() { metrics.EventLine(ev) })
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f()
}

// FuzzReadRun: reading any bytes never panics, and never gives Samples more
// rows than the input has lines plus fault counts. What it accepts, the
// writer writes as encoding/json would, and reads back the same: so on an
// input the writer could have written, the export is the input byte for
// byte.
func FuzzReadRun(f *testing.F) {
	for _, run := range goldenRuns(f) {
		exp := writeJSONL(f, run)
		if len(exp) < 32<<10 {
			f.Add(exp) // a larger seed slows every mutation down
		}
		// A short export: the manifest, a few samples and events, the runtime.
		lines := bytes.SplitAfter(exp, []byte("\n"))
		n := len(lines) - 1 // the last split is empty
		f.Add(bytes.Join([][]byte{lines[0], lines[1], lines[n-3], lines[n-2], lines[n-1]}, nil))
	}
	f.Add([]byte(`{"type":"manifest","manifest":{"p":2000000}}` + "\n" + `{"type":"sample","node":1999999,"t":1}` + "\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		run, err := metrics.ReadRun(bytes.NewReader(in))
		if err != nil {
			return
		}
		if lines := bytes.Count(in, []byte("\n")) + 1; len(run.Samples) > 1+lines+len(run.Faults) {
			t.Fatalf("%d rows of samples from %d lines and %d fault counts", len(run.Samples), lines, len(run.Faults))
		}
		var out bytes.Buffer
		if err := run.WriteJSONL(&out); err != nil {
			t.Fatalf("an accepted run does not write: %v", err)
		}
		oracle := oracleExport(t, run)
		if !bytes.Equal(out.Bytes(), oracle) {
			t.Fatalf("WriteJSONL differs from encoding/json:\n got %s\nwant %s", out.Bytes(), oracle)
		}
		if bytes.Equal(in, oracle) && !bytes.Equal(out.Bytes(), in) {
			t.Fatal("the export of a canonical input is not the input")
		}
		again, err := metrics.ReadRun(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("the export of an accepted run is refused: %v", err)
		}
		// Equal as the writer writes them: it tells no empty list from none.
		if re := writeJSONL(t, again); !bytes.Equal(re, out.Bytes()) {
			t.Fatalf("the run changed on its way through the writer:\n got %s\nwant %s", re, out.Bytes())
		}
	})
}
