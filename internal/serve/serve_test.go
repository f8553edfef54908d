package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"latchchar"
	"latchchar/internal/circuit"
	"latchchar/internal/obs"
	"latchchar/serveclient"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Engine == nil {
		eng, err := latchchar.NewEngine(latchchar.EngineOptions{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		cfg.Engine = eng
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// Eight concurrent identical requests must produce equal results while the
// engine runs exactly one characterization: the first request runs it, the
// rest coalesce onto the in-flight job or hit the result cache. The proof is
// the server's folded obs counters — one "characterize" span total.
func TestCoalescingEightConcurrentRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("full characterization")
	}
	srv, ts := newTestServer(t, Config{})
	req := serveclient.CharacterizeRequest{
		Cell:    "tspc",
		Options: serveclient.OptionsRequest{Points: 3},
		Wait:    true,
	}
	const n = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	codes := make([]int, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/characterize", req)
			codes[i] = resp.StatusCode
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	var want serveclient.JobStatus
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		var st serveclient.JobStatus
		if err := json.Unmarshal(bodies[i], &st); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if st.State != serveclient.StateDone {
			t.Fatalf("request %d: state %q (error %q)", i, st.State, st.Error)
		}
		if st.Result == nil || len(st.Result.Contour) == 0 {
			t.Fatalf("request %d: empty contour", i)
		}
		if i == 0 {
			want = st
			continue
		}
		got, _ := json.Marshal(st.Result)
		ref, _ := json.Marshal(want.Result)
		if !bytes.Equal(got, ref) {
			t.Errorf("request %d: result differs from request 0", i)
		}
	}

	// Exactly one characterization ran, per the obs span aggregate.
	if got := srv.Summary().Phase(obs.SpanCharacterize).Count; got != 1 {
		t.Errorf("characterize span count = %d, want 1", got)
	}
	// The other seven either attached in-flight or hit the result cache.
	met := srv.Core().Counters()
	co, ch := met.Coalesced.Load(), met.ResultCacheHits.Load()
	if co+ch != n-1 {
		t.Errorf("coalesced=%d cacheHits=%d, want sum %d", co, ch, n-1)
	}

	// A later identical request is a pure cache hit.
	resp, body := postJSON(t, ts.URL+"/v1/characterize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached request: status %d", resp.StatusCode)
	}
	var st serveclient.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Cached {
		t.Error("follow-up request not served from the result cache")
	}

	// The metrics endpoint exposes the folded obs counters by name (via the
	// deprecated alias, which 308s to /v1/metrics).
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"calibrations_reused",
		"latchchard_requests_total",
		"latchchard_phase_characterize_count_total 1",
	} {
		if !strings.Contains(string(met2), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The job's NDJSON event stream replays the full history and closes.
	loc := want.ID
	resp, err = http.Get(ts.URL + "/v1/jobs/" + loc + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content-type = %q", ct)
	}
	kinds := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		kinds[string(e.Kind)]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{string(obs.KindSpanBegin), string(obs.KindSpanEnd), string(obs.KindRunEnd)} {
		if kinds[k] == 0 {
			t.Errorf("event stream missing kind %q (got %v)", k, kinds)
		}
	}
}

// A drain must finish the queued jobs while new requests get 503 +
// Retry-After + a typed draining envelope, and healthz must flip to
// draining.
func TestDrainCompletesQueuedRejectsNew(t *testing.T) {
	if testing.Short() {
		t.Skip("full characterizations")
	}
	eng, err := latchchar.NewEngine(latchchar.EngineOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv, ts := newTestServer(t, Config{Engine: eng, Workers: 1})

	// Two distinct jobs: with one worker the second waits in the queue.
	var ids []string
	for _, points := range []int{2, 3} {
		resp, body := postJSON(t, ts.URL+"/v1/characterize", serveclient.CharacterizeRequest{
			Cell:    "tspc",
			Options: serveclient.OptionsRequest{Points: points},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var st serveclient.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is refused while the queued jobs keep running: 503, a
	// Retry-After hint, and the typed draining code.
	resp, body := postJSON(t, ts.URL+"/v1/characterize", serveclient.CharacterizeRequest{
		Cell: "tspc", Options: serveclient.OptionsRequest{Points: 4},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After")
	}
	var env serveclient.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != serveclient.CodeDraining {
		t.Errorf("draining envelope = %s (err %v), want code %q", body, err, serveclient.CodeDraining)
	}
	if env.Error.CorrelationID == "" {
		t.Error("draining envelope missing correlation_id")
	}
	hc, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hc.Body.Close()
	if hc.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: %d", hc.StatusCode)
	}
	if hc.Header.Get("Retry-After") == "" {
		t.Error("draining healthz without Retry-After")
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		var st serveclient.JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != serveclient.StateDone {
			t.Errorf("job %s after drain: state %q (error %q)", id, st.State, st.Error)
		}
		if st.Result == nil || len(st.Result.Contour) == 0 {
			t.Errorf("job %s after drain: empty contour", id)
		}
	}
}

// A full queue must reject with 429, a Retry-After hint, and the typed
// queue_full envelope — exercised end to end over HTTP using the mock job
// mode to pin the single worker deterministically.
func TestQueueFullBackpressureHTTP(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Workers:     1,
		QueueDepth:  1,
		MockJobTime: 2 * time.Second,
	})

	post := func(points int) (*http.Response, []byte) {
		return postJSON(t, ts.URL+"/v1/characterize", serveclient.CharacterizeRequest{
			Cell: "tspc", Options: serveclient.OptionsRequest{Points: points},
		})
	}
	// Job 1 occupies the worker; wait until it actually runs so job 2
	// deterministically fills the single queue slot.
	resp, body := post(2)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d: %s", resp.StatusCode, body)
	}
	var st serveclient.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Core().Snapshot().QueueDepth != 0 {
		if time.Now().After(deadline) {
			t.Fatal("job 1 never left the queue")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, body = post(3); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d: %s", resp.StatusCode, body)
	}
	resp, body = post(4)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue-full 429 without Retry-After")
	}
	var env serveclient.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != serveclient.CodeQueueFull {
		t.Errorf("queue-full envelope = %s (err %v), want code %q", body, err, serveclient.CodeQueueFull)
	}
	if srv.Core().Counters().RejectedFull.Load() != 1 {
		t.Errorf("RejectedFull = %d", srv.Core().Counters().RejectedFull.Load())
	}
}

// The batch endpoint runs one engine batch: same-cell jobs share one
// calibration and the followers warm-start from the leader's contour.
func TestBatchEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full characterizations")
	}
	_, ts := newTestServer(t, Config{})
	req := serveclient.BatchRequest{
		Wait: true,
		Jobs: []serveclient.BatchJobRequest{
			{Name: "lead", CharacterizeRequest: serveclient.CharacterizeRequest{Cell: "tspc", Options: serveclient.OptionsRequest{Points: 3}}},
			{Name: "follow", CharacterizeRequest: serveclient.CharacterizeRequest{Cell: "tspc", Options: serveclient.OptionsRequest{Points: 3}}},
		},
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var st serveclient.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Results) != 2 {
		t.Fatalf("results = %d", len(st.Results))
	}
	for i, r := range st.Results {
		if r.Error != "" || r.Result == nil || len(r.Result.Contour) == 0 {
			t.Fatalf("item %d: error %q", i, r.Error)
		}
	}
	if !st.Results[1].WarmStarted && !st.Results[1].CalibrationReused {
		t.Error("second batch job neither warm-started nor calibration-reused")
	}
}

// A Monte-Carlo request (mc_samples > 0) must run the variance-aware flow
// and return the nominal contour plus the sigma estimate, with MC-path
// counters on /v1/metrics. A second identical request must come from the
// result cache — MC options participate in the coalescing key.
func TestMonteCarloEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full monte-carlo run")
	}
	_, ts := newTestServer(t, Config{})
	req := serveclient.CharacterizeRequest{
		Cell: "tspc",
		Options: serveclient.OptionsRequest{
			Points:         8,
			BothDirections: true,
			FastPath:       true,
			MCSamples:      3,
			Sampler:        "lhs",
			Seed:           7,
			MCProbes:       4,
		},
		Wait: true,
	}
	resp, body := postJSON(t, ts.URL+"/v1/characterize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var st serveclient.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != serveclient.StateDone {
		t.Fatalf("state %q (error %q)", st.State, st.Error)
	}
	if st.Result == nil || st.Result.Sigma == nil {
		t.Fatalf("missing sigma estimate: %s", body)
	}
	sig := st.Result.Sigma
	if sig.Samples < 2 || len(sig.Inner) == 0 || len(sig.Inner) != len(sig.Outer) || len(sig.Inner) != len(sig.Probes) {
		t.Fatalf("malformed sigma estimate: %+v", sig)
	}
	if sig.WarmSamples == 0 {
		t.Error("no warm-started samples")
	}
	if sig.RunSims <= 0 {
		t.Error("run sims not accounted")
	}

	resp2, body2 := postJSON(t, ts.URL+"/v1/characterize", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp2.StatusCode, body2)
	}
	var st2 serveclient.JobStatus
	if err := json.Unmarshal(body2, &st2); err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Error("identical MC request was not served from the result cache")
	}

	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, ctr := range []string{"mc_warm_seeds", "mc_sims_saved", "mc_cv_applied"} {
		if !strings.Contains(string(metrics), ctr) {
			t.Errorf("metrics exposition is missing %s", ctr)
		}
	}
}

// Every rejection must carry the v1 typed error envelope with a closed-set
// code and the request's correlation ID.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		url  string
		body string
		code int
	}{
		{"unknown cell", "/v1/characterize", `{"cell":"zzz"}`, http.StatusBadRequest},
		{"no cell or netlist", "/v1/characterize", `{}`, http.StatusBadRequest},
		{"bad method", "/v1/characterize", `{"cell":"tspc","options":{"method":"rk4"}}`, http.StatusBadRequest},
		{"unknown field", "/v1/characterize", `{"cell":"tspc","bogus":1}`, http.StatusBadRequest},
		{"negative points", "/v1/characterize", `{"cell":"tspc","options":{"points":-1}}`, http.StatusBadRequest},
		{"override on netlist", "/v1/characterize", `{"netlist":"x","process":{}}`, http.StatusBadRequest},
		{"mc on netlist", "/v1/characterize", `{"netlist":"x","options":{"mc_samples":4}}`, http.StatusBadRequest},
		{"bad sampler", "/v1/characterize", `{"cell":"tspc","options":{"mc_samples":4,"sampler":"dartboard"}}`, http.StatusBadRequest},
		{"mc in batch", "/v1/batch", `{"jobs":[{"cell":"tspc","options":{"mc_samples":4}}]}`, http.StatusBadRequest},
		{"empty batch", "/v1/batch", `{"jobs":[]}`, http.StatusBadRequest},
		{"bad batch item", "/v1/batch", `{"jobs":[{"cell":"zzz"}]}`, http.StatusBadRequest},
		{"deck past the unknown limit", "/v1/characterize", oversizedDeckRequest(t), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, b)
		}
		var env serveclient.ErrorEnvelope
		if err := json.Unmarshal(b, &env); err != nil {
			t.Errorf("%s: malformed error body %q", tc.name, b)
			continue
		}
		if env.Error.Code != serveclient.CodeInvalidRequest {
			t.Errorf("%s: code %q, want %q", tc.name, env.Error.Code, serveclient.CodeInvalidRequest)
		}
		if env.Error.Message == "" || env.Error.CorrelationID == "" {
			t.Errorf("%s: incomplete envelope %s", tc.name, b)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}
	var env serveclient.ErrorEnvelope
	if err := json.Unmarshal(b, &env); err != nil || env.Error.Code != serveclient.CodeNotFound {
		t.Errorf("unknown job envelope = %s, want code %q", b, serveclient.CodeNotFound)
	}
}

// The deprecated unprefixed routes must answer 308 with the /v1/ successor
// and sunset headers, without executing the handler.
func TestDeprecatedRouteRedirects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	for from, to := range map[string]string{
		"/healthz": "/v1/healthz",
		"/metrics": "/v1/metrics",
		"/statusz": "/v1/statusz",
	} {
		resp, err := noFollow.Get(ts.URL + from)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusPermanentRedirect {
			t.Errorf("%s: status %d, want 308", from, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc != to {
			t.Errorf("%s: Location %q, want %q", from, loc, to)
		}
		if resp.Header.Get("Deprecation") != "true" {
			t.Errorf("%s: missing Deprecation header", from)
		}
		if link := resp.Header.Get("Link"); !strings.Contains(link, `rel="successor-version"`) {
			t.Errorf("%s: Link %q missing successor-version", from, link)
		}
	}
}

func TestConfigRequiresEngine(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil engine accepted")
	}
}

// oversizedDeckRequest renders a characterize request whose inline deck is
// valid but has more unknowns than circuit.MaxUnknowns: a resistor ladder
// hung off the output node.
func oversizedDeckRequest(t *testing.T) string {
	t.Helper()
	var deck strings.Builder
	deck.WriteString(`.model nch nmos VT0=0.43 KP=115u
Vc clk 0 CLOCK(0 2.5 10n 1n 0.1n 0.1n)
Vd d 0 DATA(11.05n 2.5 0 0.1n 0.1n)
M1 q d 0 0 nch W=1u L=0.25u
.out q
`)
	prev := "q"
	for i := 0; i < circuit.MaxUnknowns; i++ {
		node := fmt.Sprintf("n%d", i)
		fmt.Fprintf(&deck, "R%d %s %s 1k\n", i, prev, node)
		prev = node
	}
	b, err := json.Marshal(serveclient.CharacterizeRequest{Netlist: deck.String()})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
