package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
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

// sealRuns puts n done runs into a registry over root, each with a
// metrics.jsonl sidecar, and returns their IDs in order.
func sealRuns(tb testing.TB, root string, n int) []string {
	tb.Helper()
	reg, err := OpenRegistry(root)
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]string, n)
	for i := range ids {
		rec := testRecord(StateDone)
		rec.Artifacts = []string{"metrics.jsonl"}
		if err := reg.Put(rec); err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(reg.Dir(rec.ID), "metrics.jsonl"), []byte("{}\n"), 0o644); err != nil {
			tb.Fatal(err)
		}
		ids[i] = rec.ID
	}
	return ids
}

// TestRegistryOpenReadsNoManifest: opening lists the root and nothing more.
// A manifest spoiled after the open is what the first read finds, and so is
// a sidecar removed after it.
func TestRegistryOpenReadsNoManifest(t *testing.T) {
	root := t.TempDir()
	ids := sealRuns(t, root, 3)
	spoiled, stripped, intact := ids[0], ids[1], ids[2]
	reg, err := OpenRegistry(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, spoiled, "manifest.json"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(root, stripped, "metrics.jsonl")); err != nil {
		t.Fatal(err)
	}

	if got, ok := reg.Get(spoiled); ok {
		t.Fatalf("Get(%s) over a junk manifest = %+v, want not found", spoiled, got)
	}
	got, ok := reg.Get(stripped)
	if !ok || got.State != StateDone || len(got.Artifacts) != 0 {
		t.Fatalf("Get(%s) = %+v, %v; want done with no artifacts", stripped, got, ok)
	}
	list := reg.List("", "")
	if len(list) != 2 || list[0].ID != stripped || list[1].ID != intact {
		t.Fatalf("List = %+v, want %s and %s", list, stripped, intact)
	}
	if a := list[1].Artifacts; len(a) != 1 || a[0] != "metrics.jsonl" {
		t.Fatalf("intact run's artifacts = %v, want [metrics.jsonl]", a)
	}
}

// TestRegistryDemotionIsOnDisk: the first read of a run left queued by an
// earlier registry writes the lost state into its manifest.json.
func TestRegistryDemotionIsOnDisk(t *testing.T) {
	root := t.TempDir()
	reg, err := OpenRegistry(root)
	if err != nil {
		t.Fatal(err)
	}
	queued := testRecord(StateQueued)
	if err := reg.Put(queued); err != nil {
		t.Fatal(err)
	}
	reg2, err := OpenRegistry(root)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := reg2.Get(queued.ID); !ok || got.State != StateLost {
		t.Fatalf("Get(%s) = %+v, %v; want lost", queued.ID, got, ok)
	}
	if state := manifestState(t, reg2.Dir(queued.ID)); state != StateLost {
		t.Fatalf("manifest.json state = %s, want lost", state)
	}
}

// manifestState parses the manifest.json in dir, failing the test if it
// does not parse.
func manifestState(t *testing.T, dir string) RunState {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec RunRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatalf("manifest.json does not parse: %v\n%s", err, b)
	}
	return rec.State
}

// TestRegistryConcurrentFirstReads: callers racing to be the first to read
// an unread running run all see it lost, and its demotion is written once,
// whole, with no temporary file left behind.
func TestRegistryConcurrentFirstReads(t *testing.T) {
	root := t.TempDir()
	reg, err := OpenRegistry(root)
	if err != nil {
		t.Fatal(err)
	}
	running := testRecord(StateRunning)
	if err := reg.Put(running); err != nil {
		t.Fatal(err)
	}
	reg2, err := OpenRegistry(root)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	seen := make(chan RunState, 2*callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get := func() {
				rec, _ := reg2.Get(running.ID)
				seen <- rec.State
			}
			list := func() {
				var state RunState
				if l := reg2.List("", ""); len(l) == 1 {
					state = l[0].State
				}
				seen <- state
			}
			if i%2 == 0 {
				get()
				list()
			} else {
				list()
				get()
			}
		}()
	}
	wg.Wait()
	close(seen)
	for state := range seen {
		if state != StateLost {
			t.Fatalf("a caller saw state %q, want lost", state)
		}
	}
	dir := reg2.Dir(running.ID)
	if state := manifestState(t, dir); state != StateLost {
		t.Fatalf("manifest.json state = %s, want lost", state)
	}
	if _, err := os.Stat(filepath.Join(dir, ".manifest.json.tmp")); !os.IsNotExist(err) {
		t.Fatalf(".manifest.json.tmp left behind (stat error %v)", err)
	}
}

// BenchmarkRegistryOpen times a restart over 250 sealed runs: the open
// alone, and the open followed by a List that reads every run.
func BenchmarkRegistryOpen(b *testing.B) {
	const runs = 250
	root := b.TempDir()
	sealRuns(b, root, runs)
	b.Run("open", func(b *testing.B) {
		for range b.N {
			if _, err := OpenRegistry(root); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open+list", func(b *testing.B) {
		for range b.N {
			reg, err := OpenRegistry(root)
			if err != nil {
				b.Fatal(err)
			}
			if n := len(reg.List("", "")); n != runs {
				b.Fatalf("List = %d runs, want %d", n, runs)
			}
		}
	})
}
