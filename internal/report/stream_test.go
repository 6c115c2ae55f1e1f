package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"aiac/internal/metrics"
)

// export is the run's telemetry as the service stores it.
func export(t testing.TB, run *metrics.Run) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamFrames replays the run's stored export.
func streamFrames(t testing.TB, run *metrics.Run) []Frame {
	t.Helper()
	frames, err := Stream(export(t, run))
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

func streamBytes(t *testing.T, run *metrics.Run) string {
	t.Helper()
	return string(sseBytes(t, streamFrames(t, run)))
}

// TestStreamGolden pins the full SSE byte stream of a finished vtime run.
// The replay is a pure function of the stored run, so the bytes reproduce
// exactly on any machine.
func TestStreamGolden(t *testing.T) {
	run := goldenRun(t, true, "golden-sse")
	checkGolden(t, "stream.golden.sse", streamBytes(t, run))
}

// TestStreamDeterministic re-executes the same pinned run and requires
// byte-identical SSE output — the acceptance bar for the service's
// /runs/{id}/events replay of finished runs.
func TestStreamDeterministic(t *testing.T) {
	a := streamBytes(t, goldenRun(t, true, "det"))
	b := streamBytes(t, goldenRun(t, true, "det"))
	if a != b {
		t.Fatal("two identical vtime runs streamed different bytes")
	}
}

// TestStreamRoundTrip feeds Stream's frames through the SSE wire format and
// Accumulate, and requires the rebuilt run to render the same dashboard.
func TestStreamRoundTrip(t *testing.T) {
	run := goldenRun(t, false, "roundtrip")
	frames, err := ReadSSE(bytes.NewReader(sseBytes(t, streamFrames(t, run))))
	if err != nil {
		t.Fatal(err)
	}
	got, phase, err := Accumulate(frames)
	if err != nil {
		t.Fatal(err)
	}
	if phase != metrics.PhaseDone {
		t.Fatalf("terminal phase = %q, want %q", phase, metrics.PhaseDone)
	}
	if !reflect.DeepEqual(got.Manifest, run.Manifest) {
		t.Fatalf("manifest did not round-trip:\n got %+v\nwant %+v", got.Manifest, run.Manifest)
	}
	if len(got.Events) != len(run.Events) {
		t.Fatalf("events: got %d, want %d", len(got.Events), len(run.Events))
	}
	var wantN, gotN int
	for _, row := range run.Samples {
		wantN += len(row)
	}
	for _, row := range got.Samples {
		gotN += len(row)
	}
	if gotN != wantN {
		t.Fatalf("samples: got %d, want %d", gotN, wantN)
	}
	if Render(got, Options{}) != Render(run, Options{}) {
		t.Fatal("accumulated run renders a different dashboard")
	}
}

// TestStreamOrdering checks the canonical merge: frames are in virtual-time
// order, equal-time samples precede events and are sorted by node.
func TestStreamOrdering(t *testing.T) {
	run := &metrics.Run{
		Manifest: metrics.Manifest{
			Name: "order",
			P:    2,
			Outcome: &metrics.Outcome{
				Converged: true, Time: 3, TotalIters: 3, MaxResidual: 1,
			},
		},
		Samples: [][]metrics.NodeSample{
			{{T: 1, Iter: 1}, {T: 2, Iter: 2}},
			{{T: 1, Iter: 1}, {T: 3, Iter: 2}},
		},
		Events: []metrics.Event{
			{T: 1, Node: 0, Name: "conv"},
			{T: 2.5, Node: 1, Name: "relapse"},
		},
	}
	var want []string
	for _, f := range streamFrames(t, run) {
		want = append(want, f.Event)
	}
	joined := strings.Join(want, " ")
	const expect = "manifest phase sample sample event sample event sample runtime phase"
	if joined != expect {
		t.Fatalf("frame order = %q, want %q", joined, expect)
	}
}

// TestStreamUnsealedRun: a run with no sealed outcome must not claim "done".
func TestStreamUnsealedRun(t *testing.T) {
	run := &metrics.Run{Manifest: metrics.Manifest{Name: "live"}}
	frames := streamFrames(t, run)
	last := frames[len(frames)-1]
	if last.Event != FramePhase {
		t.Fatalf("last frame = %q, want phase", last.Event)
	}
	if !strings.Contains(string(last.Data), metrics.PhaseRunning) {
		t.Fatalf("unsealed run ended with %s, want phase %q", last.Data, metrics.PhaseRunning)
	}
}

// TestReadSSESkipsKeepalives: comment lines and unknown fields are ignored,
// and a trailing unterminated frame is kept.
func TestReadSSESkipsKeepalives(t *testing.T) {
	in := ": keepalive\nevent: phase\ndata: {\"type\":\"phase\",\"phase\":\"running\"}\n\n: another\nretry: 100\nevent: runtime\ndata: {\"type\":\"runtime\"}\n"
	frames, err := ReadSSE(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want 2", len(frames))
	}
	if frames[0].Event != FramePhase || frames[1].Event != FrameRuntime {
		t.Fatalf("frame events = %q, %q", frames[0].Event, frames[1].Event)
	}
}

// TestWriteSSERejectsNewlines: payloads with newlines would corrupt the
// wire format and must be refused.
func TestWriteSSERejectsNewlines(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSSEStream(&buf, []Frame{{Event: "sample", Data: []byte("{\n}")}})
	if err == nil {
		t.Fatal("newline payload accepted")
	}
}
