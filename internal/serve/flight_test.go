package serve

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"latchchar/internal/core"
	"latchchar/internal/obs"
	"latchchar/serveclient"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// A timed-out job must leave a tracecheck-valid flight-recorder dump in
// DumpDir: dump_meta header with reason "timeout" and the job's correlation
// ID, a recorded event window, every event stamped with the same ID. The
// corrector is held until the job's deadline, so the job outlasts the
// timeout however fast the solver is.
func TestJobTimeoutWritesFlightDump(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a characterization into its timeout")
	}
	defer core.HoldCorrectorForTest(func(ctx context.Context) { <-ctx.Done() })()
	dumpDir := t.TempDir()
	_, ts := newTestServer(t, Config{
		JobTimeout: 300 * time.Millisecond,
		DumpDir:    dumpDir,
		Logger:     discardLogger(),
	})

	req, err := http.NewRequest("POST", ts.URL+"/v1/characterize",
		strings.NewReader(`{"cell":"tspc","options":{"points":40},"wait":true}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Correlation-Id", "corr-timeout-test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st serveclient.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if st.State != serveclient.StateCanceled {
		t.Fatalf("state = %q (error %q), want canceled by the job timeout", st.State, st.Error)
	}
	if st.Corr != "corr-timeout-test" {
		t.Errorf("JobStatus.Corr = %q", st.Corr)
	}
	if got := resp.Header.Get("X-Correlation-Id"); got != "corr-timeout-test" {
		t.Errorf("response X-Correlation-Id = %q", got)
	}

	// runJob writes the dump before closing done, so it exists by now.
	path := filepath.Join(dumpDir, "flight-"+st.ID+".jsonl")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("dump not written: %v", err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateDump(events); err != nil {
		t.Fatalf("dump fails validation: %v", err)
	}
	head := events[0]
	if head.Reason != "timeout" {
		t.Errorf("dump reason = %q, want timeout", head.Reason)
	}
	if head.Job != st.ID || head.Corr != "corr-timeout-test" {
		t.Errorf("dump header job=%q corr=%q", head.Job, head.Corr)
	}
	if head.Msg == "" {
		t.Error("dump header missing the job error")
	}
	if len(events) < 3 {
		t.Fatalf("dump has %d events, want a recorded window", len(events))
	}
	for i, e := range events {
		if e.Corr != "corr-timeout-test" {
			t.Fatalf("event %d (%s) corr = %q", i, e.Kind, e.Corr)
		}
	}

	// The NDJSON event stream of the same job carries the same correlation
	// ID on every line.
	er, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer er.Body.Close()
	dec := json.NewDecoder(er.Body)
	n := 0
	for dec.More() {
		var e obs.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		if e.Corr != "corr-timeout-test" {
			t.Fatalf("stream event %d (%s) corr = %q", n, e.Kind, e.Corr)
		}
		n++
	}
	if n == 0 {
		t.Error("event stream empty")
	}
}

// The middleware must echo an incoming W3C traceparent trace-id as the
// correlation ID (new span-id) and always answer with X-Correlation-Id.
func TestTraceparentIngestionAndEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{Logger: discardLogger()})
	const tid = "0123456789abcdef0123456789abcdef"

	req, err := http.NewRequest("GET", ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+tid+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Correlation-Id"); got != tid {
		t.Errorf("X-Correlation-Id = %q, want the incoming trace-id", got)
	}
	tp := resp.Header.Get("traceparent")
	parts := strings.Split(tp, "-")
	if len(parts) != 4 || parts[1] != tid {
		t.Fatalf("echoed traceparent = %q, want same trace-id", tp)
	}
	if parts[2] == "00f067aa0ba902b7" {
		t.Error("echoed traceparent reuses the caller's span-id")
	}

	// Without any header the server mints a fresh trace-id.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Correlation-Id"); len(got) != 32 {
		t.Errorf("minted correlation ID %q, want a 32-hex trace-id", got)
	}

	// A malformed traceparent is ignored, not echoed.
	req3, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req3.Header.Set("traceparent", "00-zzzz-bad-01")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Correlation-Id"); got == "" || strings.Contains(got, "z") {
		t.Errorf("malformed traceparent produced corr %q", got)
	}
}

// /statusz must be well-formed JSON with sane shape straight after startup.
func TestStatuszWellFormed(t *testing.T) {
	_, ts := newTestServer(t, Config{Logger: discardLogger()})
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st serveclient.StatusZ
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("statusz not well-formed: %v", err)
	}
	if st.Workers <= 0 || st.QueueCap <= 0 {
		t.Errorf("workers=%d queue_cap=%d", st.Workers, st.QueueCap)
	}
	if st.Draining {
		t.Error("fresh server reports draining")
	}
	if st.Runtime == nil {
		t.Fatal("statusz missing the runtime sample")
	}
	if st.Runtime.Goroutines <= 0 || st.Runtime.HeapBytes == 0 {
		t.Errorf("runtime sample empty: %+v", st.Runtime)
	}
	if st.Latency == nil {
		t.Error("latency must be [] rather than null")
	}

	// After a couple of requests the rolling windows carry quantiles.
	for i := 0; i < 3; i++ {
		r, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	resp2, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st2 serveclient.StatusZ
	if err := json.NewDecoder(resp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, q := range st2.Latency {
		if q.Route == "/v1/healthz" && q.Count >= 3 && q.P50MS >= 0 && q.P99MS >= q.P50MS {
			found = true
		}
	}
	if !found {
		t.Errorf("no /healthz quantiles in %+v", st2.Latency)
	}
}

// The live /metrics output must pass the promtool-style lint, including the
// request-duration histogram once a route has samples.
func TestMetricsOutputPassesLint(t *testing.T) {
	_, ts := newTestServer(t, Config{Logger: discardLogger()})
	for i := 0; i < 2; i++ {
		r, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := LintMetrics(strings.NewReader(string(body))); err != nil {
		t.Fatalf("metrics lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		"latchchard_request_seconds_bucket",
		"latchchard_request_seconds_sum",
		"latchchard_request_seconds_count",
		"latchchard_goroutines",
		"latchchard_obs_runtime_samples_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// LintMetrics itself must reject the classic exposition-format mistakes.
func TestLintMetricsRejects(t *testing.T) {
	cases := []struct {
		name, text string
	}{
		{"no metadata", "foo 1\n"},
		{"duplicate series", "# HELP foo f\n# TYPE foo counter\nfoo 1\nfoo 2\n"},
		{"bad name", "# HELP 9foo f\n# TYPE 9foo counter\n9foo 1\n"},
		{"histogram missing +Inf", "# HELP h H\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"histogram not cumulative", "# HELP h H\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"count disagrees with +Inf", "# HELP h H\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n"},
	}
	for _, tc := range cases {
		if err := LintMetrics(strings.NewReader(tc.text)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	good := "# HELP h H\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1.5\nh_count 2\n"
	if err := LintMetrics(strings.NewReader(good)); err != nil {
		t.Errorf("valid histogram rejected: %v", err)
	}
}
