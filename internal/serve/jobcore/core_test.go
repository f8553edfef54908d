package jobcore

import (
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"latchchar"
	"latchchar/serveclient"
)

func newTestCore(t *testing.T, cfg Config) *Core {
	t.Helper()
	if cfg.Engine == nil {
		eng, err := latchchar.NewEngine(latchchar.EngineOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		cfg.Engine = eng
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// blockingCell returns a cell whose Build blocks until release is closed,
// pinning a job inside the engine without burning simulation time.
func blockingCell(name string, release <-chan struct{}) *latchchar.Cell {
	return &latchchar.Cell{Name: name, Build: func() (*latchchar.Instance, error) {
		<-release
		return nil, errors.New("released")
	}}
}

// A full queue rejects with ReasonQueueFull and frees the slot again once a
// job drains.
func TestQueueFullBackpressure(t *testing.T) {
	c := newTestCore(t, Config{Workers: 1, QueueDepth: 1})

	release := make(chan struct{})
	submit := func(key string) (*Job, error) {
		j, cached, err := c.Submit(key, "", blockingCell(key, release), latchchar.Options{}, false)
		if cached {
			t.Fatalf("unexpected cache hit for %s", key)
		}
		return j, err
	}
	a, err := submit("a")
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the single worker holds job a, so job b occupies the one
	// queue slot deterministically.
	for {
		if st := a.Status(); st.State == serveclient.StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	b, err := submit("b")
	if err != nil {
		t.Fatal(err)
	}
	_, err = submit("c")
	var se *SubmitError
	if !errors.As(err, &se) || se.Reason != ReasonQueueFull {
		t.Fatalf("third submit: %v, want queue-full rejection", err)
	}
	if se.HTTPStatus() != http.StatusTooManyRequests {
		t.Errorf("queue-full HTTPStatus = %d, want 429", se.HTTPStatus())
	}

	close(release)
	<-a.Done()
	<-b.Done()
	// Both blocked jobs failed their build — but they freed the queue.
	if st := a.Status(); st.State != serveclient.StateFailed {
		t.Errorf("job a: state %q", st.State)
	}
	if c.Counters().RejectedFull.Load() != 1 {
		t.Errorf("RejectedFull = %d", c.Counters().RejectedFull.Load())
	}
	if _, err := submit("d"); err != nil {
		t.Errorf("submit after drain of queue: %v", err)
	}
}

// Identical concurrent submissions coalesce onto one in-flight job.
func TestSubmitCoalescesInflight(t *testing.T) {
	c := newTestCore(t, Config{Workers: 1})

	release := make(chan struct{})
	first, _, err := c.Submit("k", "", blockingCell("k", release), latchchar.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	second, cached, err := c.Submit("k", "", blockingCell("k", release), latchchar.Options{}, false)
	if err != nil || cached {
		t.Fatalf("second submit: cached=%v err=%v", cached, err)
	}
	if second != first {
		t.Error("identical submission did not coalesce onto the in-flight job")
	}
	if st := first.Status(); st.Coalesced != 1 {
		t.Errorf("coalesced = %d", st.Coalesced)
	}
	close(release)
	<-first.Done()
	// Failed jobs must not populate the result cache.
	if _, ok := c.results.Get("k"); ok {
		t.Error("failed job cached")
	}
}

// A draining core rejects with ReasonDraining (mapped to 503 by transports).
func TestSubmitWhileDraining(t *testing.T) {
	c := newTestCore(t, Config{Workers: 1})
	c.Close()
	_, _, err := c.Submit("x", "", blockingCell("x", make(chan struct{})), latchchar.Options{}, false)
	var se *SubmitError
	if !errors.As(err, &se) || se.Reason != ReasonDraining {
		t.Fatalf("submit while draining: %v", err)
	}
	if se.HTTPStatus() != http.StatusServiceUnavailable {
		t.Errorf("draining HTTPStatus = %d, want 503", se.HTTPStatus())
	}
}

// Mock mode must produce terminal done jobs with the canned contour after
// roughly the configured service time — the substrate of the cluster smoke
// and load tests.
func TestMockJobMode(t *testing.T) {
	c := newTestCore(t, Config{Workers: 2, MockJobTime: 10 * time.Millisecond})
	cell, err := latchchar.CellByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	j, cached, err := c.Submit("mock-key", "", cell, latchchar.Options{}, false)
	if err != nil || cached {
		t.Fatalf("submit: cached=%v err=%v", cached, err)
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("mock job never finished")
	}
	st := j.Status()
	if st.State != serveclient.StateDone {
		t.Fatalf("state %q (error %q)", st.State, st.Error)
	}
	if st.Result == nil || len(st.Result.Contour) != 3 {
		t.Fatalf("mock result = %+v", st.Result)
	}
	if st.RunMS < 5 {
		t.Errorf("mock job ran in %.2fms, want >= the configured service time", st.RunMS)
	}
}

// The flight recorder exists only when a dump can be written, and no
// finished job record keeps one: without DumpDir a job never records; with
// it, a failed job writes its dump and then drops the recorder.
func TestFlightRecorderOnlyWithDumpDir(t *testing.T) {
	dir := t.TempDir()
	for _, dumpDir := range []string{"", dir} {
		c := newTestCore(t, Config{Workers: 1, DumpDir: dumpDir})
		release := make(chan struct{})
		j, _, err := c.Submit("k", "", blockingCell("k", release), latchchar.Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		if (j.rec != nil) != (dumpDir != "") {
			t.Errorf("DumpDir %q: recorder attached = %v", dumpDir, j.rec != nil)
		}
		close(release)
		<-j.Done()
		if j.rec != nil {
			t.Errorf("DumpDir %q: finished job still holds its recorder", dumpDir)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "flight-j00000001.jsonl")); err != nil {
		t.Errorf("failed job left no flight dump: %v", err)
	}
}
