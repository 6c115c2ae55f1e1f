package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aiac/internal/metrics"
)

func testRecord(state RunState) *RunRecord {
	return &RunRecord{
		ID:          NewID(time.Now()),
		Tenant:      "t1",
		State:       state,
		SubmittedAt: "2026-01-01T00:00:00Z",
		Spec:        RunSpec{}.WithDefaults(),
	}
}

func TestRegistryPutGetList(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := testRecord(StateDone), testRecord(StateFailed)
	b.Tenant = "t2"
	for _, rec := range []*RunRecord{a, b} {
		if err := reg.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := reg.Get(a.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("Get(%s) = %+v, %v", a.ID, got, ok)
	}
	if n := len(reg.List("", "")); n != 2 {
		t.Fatalf("List all = %d records, want 2", n)
	}
	if n := len(reg.List("t2", "")); n != 1 {
		t.Fatalf("List tenant t2 = %d records, want 1", n)
	}
	if n := len(reg.List("", StateFailed)); n != 1 {
		t.Fatalf("List failed = %d records, want 1", n)
	}
	list := reg.List("", "")
	if list[0].ID > list[1].ID {
		t.Fatal("List is not ID-sorted")
	}
}

// TestRegistryRescanSurvivesRestart: a fresh Registry over the same root
// recovers every completed run and demotes non-terminal ones to lost.
func TestRegistryRescanSurvivesRestart(t *testing.T) {
	root := t.TempDir()
	reg, err := OpenRegistry(root)
	if err != nil {
		t.Fatal(err)
	}
	done := testRecord(StateDone)
	done.Outcome = &metrics.Outcome{Converged: true, Time: 1}
	canceled := testRecord(StateCanceled)
	running := testRecord(StateRunning)
	queued := testRecord(StateQueued)
	for _, rec := range []*RunRecord{done, canceled, running, queued} {
		if err := reg.Put(rec); err != nil {
			t.Fatal(err)
		}
	}

	// A record stored before the sim_workers knob was removed still loads:
	// rescan tolerates fields it no longer knows.
	path := filepath.Join(root, done.ID, "manifest.json")
	var stored map[string]any
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &stored); err != nil {
		t.Fatal(err)
	}
	stored["spec"].(map[string]any)["sim_workers"] = 2
	if b, err = json.Marshal(stored); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// "Restart": open a second registry over the same directory.
	reg2, err := OpenRegistry(root)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := reg2.Get(done.ID); !ok || got.State != StateDone || got.Outcome == nil || !got.Outcome.Converged {
		t.Fatalf("done run not recovered: %+v, %v", got, ok)
	}
	if got, _ := reg2.Get(canceled.ID); got.State != StateCanceled {
		t.Fatalf("canceled run state = %s", got.State)
	}
	for _, id := range []string{running.ID, queued.ID} {
		got, ok := reg2.Get(id)
		if !ok || got.State != StateLost {
			t.Fatalf("non-terminal run %s = %+v, want lost", id, got)
		}
	}
	// The demotion is durable: a third scan still reads lost.
	reg3, err := OpenRegistry(root)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := reg3.Get(running.ID); got.State != StateLost {
		t.Fatalf("lost demotion not durable: %s", got.State)
	}
}

// TestRegistryRescanSkipsJunk: foreign directories, files, and corrupt
// manifests do not break (or pollute) the index.
func TestRegistryRescanSkipsJunk(t *testing.T) {
	root := t.TempDir()
	reg, err := OpenRegistry(root)
	if err != nil {
		t.Fatal(err)
	}
	good := testRecord(StateDone)
	if err := reg.Put(good); err != nil {
		t.Fatal(err)
	}
	// junk: a non-ULID dir, a ULID dir without manifest, one with corrupt
	// JSON, one whose manifest disagrees with the dir name, and a file.
	os.MkdirAll(filepath.Join(root, "not-a-ulid"), 0o755)
	os.MkdirAll(filepath.Join(root, NewID(time.Now())), 0o755)
	corrupt := NewID(time.Now())
	os.MkdirAll(filepath.Join(root, corrupt), 0o755)
	os.WriteFile(filepath.Join(root, corrupt, "manifest.json"), []byte("{oops"), 0o644)
	lying := NewID(time.Now())
	os.MkdirAll(filepath.Join(root, lying), 0o755)
	os.WriteFile(filepath.Join(root, lying, "manifest.json"),
		[]byte(`{"id":"somebody-else","state":"done"}`), 0o644)
	os.WriteFile(filepath.Join(root, "stray.txt"), []byte("x"), 0o644)

	reg2, err := OpenRegistry(root)
	if err != nil {
		t.Fatal(err)
	}
	list := reg2.List("", "")
	if len(list) != 1 || list[0].ID != good.ID {
		t.Fatalf("rescan over junk = %+v, want just %s", list, good.ID)
	}
}
