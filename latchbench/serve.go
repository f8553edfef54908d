package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"latchchar"
	"latchchar/internal/obs"
	"latchchar/internal/serve"
	"latchchar/serveclient"
)

// serveCallers is the number of closed-loop clients, one connection each.
const serveCallers = 2

// serveTimeout bounds one request; a request that takes longer counts as
// failed.
const serveTimeout = 60 * time.Second

// minServeOps is the fewest operations a serve run must complete for its
// cold median and its hot/cold mix to mean anything: ten blocks of the
// generated sequence, so at least ten cold solves.
const minServeOps = 40

// caller is one closed-loop client on its own connection, counting the
// response bytes it reads.
type caller struct {
	tr    *http.Transport
	cl    *serveclient.Client
	bytes int64
}

type countingBody struct {
	io.ReadCloser
	n *int64
}

func (b countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	*b.n += int64(k)
	return k, err
}

type countingTransport struct {
	base http.RoundTripper
	n    *int64
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if resp != nil {
		resp.Body = countingBody{resp.Body, t.n}
	}
	return resp, err
}

func newCaller(base string) *caller {
	c := &caller{tr: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	c.cl = serveclient.New(base, serveclient.WithHTTPClient(&http.Client{Transport: countingTransport{c.tr, &c.bytes}}))
	return c
}

type serveState struct {
	eng     *latchchar.Engine
	srv     *serve.Server
	hs      *http.Server
	served  chan struct{} // closed when hs.Serve returns
	callers []*caller
	nominal map[string]latchchar.Process
	hotPts  []int // per hot shape
	coldPts int
}

func (s *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a failed graceful stop still closes the listener
	<-s.served
	s.srv.Close()
	s.eng.Close()
	for _, c := range s.callers {
		c.tr.CloseIdleConnections()
	}
}

func serveSetup(smoke bool) (*serveState, error) {
	eng, err := latchchar.NewEngine(latchchar.EngineOptions{Parallelism: solverWorkers})
	if err != nil {
		return nil, err
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := serve.New(serve.Config{Engine: eng, Logger: quiet, Logf: func(string, ...any) {}})
	if err != nil {
		eng.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		eng.Close()
		return nil, err
	}
	st := &serveState{eng: eng, srv: srv, hs: &http.Server{Handler: srv}, served: make(chan struct{}),
		nominal: map[string]latchchar.Process{}, coldPts: coldPoints}
	go func() {
		defer close(st.served)
		_ = st.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	base := "http://" + ln.Addr().String()
	for i := 0; i < serveCallers; i++ {
		st.callers = append(st.callers, newCaller(base))
	}
	for _, h := range hotShapes {
		p := h.points
		if smoke {
			p = max(2, p/4)
		}
		st.hotPts = append(st.hotPts, p)
	}
	if smoke {
		st.coldPts = 3
	}
	for _, name := range []string{"tspc", "c2mos"} {
		c, err := latchchar.CellByName(name)
		if err != nil {
			st.close()
			return nil, err
		}
		st.nominal[name] = c.Process
	}
	// Warm the hot set, two requests at a time, so hot requests in the
	// window are served from the result cache.
	errs := make([]error, len(hotShapes))
	var wg sync.WaitGroup
	for i := range hotShapes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = st.call(st.callers[i%serveCallers].cl, serveOp{hot: true, shape: i})
		}(i)
		if i%serveCallers == serveCallers-1 {
			wg.Wait()
		}
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		st.close()
		return nil, fmt.Errorf("serve warm-up: %w", err)
	}
	return st, nil
}

// request renders an op with this run's point counts.
func (s *serveState) request(op serveOp) (*serveclient.CharacterizeRequest, error) {
	nom := s.nominal[op.cell]
	points := s.coldPts
	if op.hot {
		points = s.hotPts[op.shape]
	}
	return op.request(nom.VDD, nom.LoadCap, points)
}

// call sends op and returns the finished job, or an error for a refused,
// failed or timed-out request.
func (s *serveState) call(cl *serveclient.Client, op serveOp) (*serveclient.JobStatus, error) {
	req, err := s.request(op)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	st, err := cl.Characterize(ctx, req)
	if err != nil {
		return nil, err
	}
	if st.State != serveclient.StateDone || st.Result == nil {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st, nil
}

// libraryCase is the library-side equivalent of a request: the same cell
// (process override applied through the public constructors) and options.
func (s *serveState) libraryCase(op serveOp) (*latchchar.Cell, latchchar.Options, error) {
	req, err := s.request(op)
	if err != nil {
		return nil, latchchar.Options{}, err
	}
	opts := latchchar.Options{Points: req.Options.Points, BothDirections: req.Options.BothDirections}
	name := op.cell
	if op.hot {
		name = hotShapes[op.shape].cell
	}
	base, err := latchchar.CellByName(name)
	if err != nil || op.hot {
		return base, opts, err
	}
	p := base.Process
	o := op.override(p.VDD, p.LoadCap)
	p.VDD, p.LoadCap = o.VDD, o.LoadCap
	if name == "tspc" {
		return latchchar.TSPCCell(p, base.Timing), opts, nil
	}
	return latchchar.C2MOSCell(p, base.Timing, 0), opts, nil
}

// opRecord is one request of the timed window.
type opRecord struct {
	op     serveOp
	lat    time.Duration
	status *serveclient.JobStatus
	err    error
	bytes  int64 // response bytes
}

// replay is one library solve behind the serve output check.
type replay struct {
	op     serveOp
	traced bool // through the traced contour flow
	lib    *latchchar.Result
	dur    time.Duration
	err    error
}

func runServe(cfg config) (*result, error) {
	st, setupS, err := timeSetup(cfg, func() (*serveState, error) { return serveSetup(cfg.smoke) })
	if err != nil {
		return nil, err
	}
	defer st.close()
	res := &result{Correct: true}

	core := st.srv.Core().Counters()
	req0, hits0 := core.Requests.Load(), core.ResultCacheHits.Load()
	coal0 := core.Coalesced.Load()
	calH0, calM0 := st.eng.CacheStats()

	recs := make([][]opRecord, serveCallers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := st.callers[c]
			for i := 0; i == 0 || time.Since(t0) < cfg.seconds; i++ {
				op := genServeOp(cfg.seed, c, i)
				b0 := cl.bytes
				s := time.Now()
				status, err := st.call(cl.cl, op)
				recs[c] = append(recs[c], opRecord{op: op, lat: time.Since(s), status: status, err: err,
					bytes: cl.bytes - b0})
			}
		}(c)
	}
	wg.Wait()
	window := time.Since(t0)

	var all []opRecord
	for _, r := range recs {
		all = append(all, r...)
	}
	var ok []opRecord
	var cold []opRecord
	for _, r := range all {
		res.Attempted++
		if r.err != nil {
			res.fail(false, "serve request: %v", r.err)
			continue
		}
		ok = append(ok, r)
		if !r.op.hot {
			cold = append(cold, r)
		}
	}
	if len(all) < minServeOps && !cfg.smoke {
		return nil, fmt.Errorf("serve: only %d operations in the window, need %d", len(all), minServeOps)
	}

	// Output check: every response against the library result for the
	// same request. Hot shapes are solved once; each cold request is
	// replayed. The traced run replays each cold request a second time
	// through the traced flow, which must reproduce the untraced result.
	var rec *recorder
	var run *obs.Run
	per := 1 // replays per cold request
	if cfg.trace {
		rec, run, per = newRecorder(), obs.New(), 2
	}
	var jobs []replay
	for _, r := range cold {
		jobs = append(jobs, replay{op: r.op})
		if cfg.trace {
			jobs = append(jobs, replay{op: r.op, traced: true})
		}
	}
	for i := range hotShapes {
		jobs = append(jobs, replay{op: serveOp{hot: true, shape: i}})
	}
	var next atomic.Int64
	for w := 0; w < solverWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := &jobs[i]
				cell, opts, err := st.libraryCase(j.op)
				if err != nil {
					j.err = err
					continue
				}
				s := time.Now()
				if j.traced {
					j.lib, j.err = tracedCharacterize(rec, i+1, run, cell, opts)
				} else {
					j.lib, j.err = latchchar.Characterize(cell, opts)
				}
				j.dur = time.Since(s)
			}
		}()
	}
	wg.Wait()
	for _, j := range jobs {
		if j.err != nil {
			return nil, fmt.Errorf("library result for %+v (traced %v): %w", j.op, j.traced, j.err)
		}
	}
	hotLib := jobs[per*len(cold):]
	coldLib := map[*serveclient.JobStatus]*latchchar.Result{}
	var plainReplay, tracedReplay time.Duration
	for i, r := range cold {
		plain := jobs[per*i]
		coldLib[r.status] = plain.lib
		if cfg.trace {
			traced := jobs[per*i+1]
			if err := sameResult(traced.lib, plain.lib); err != nil {
				res.fail(true, "traced replay of %+v: %v", r.op, err)
			}
			plainReplay += plain.dur
			tracedReplay += traced.dur
		}
	}

	var lat, hotLat, coldLat []float64
	var latSum, coldSum, overhead, queued, runMS float64
	var respBytes int64
	for _, r := range ok {
		want := coldLib[r.status]
		if r.op.hot {
			want = hotLib[r.op.shape].lib
		}
		if err := sameResponse(r.status.Result, want); err != nil {
			res.fail(true, "serve %+v: %v", r.op, err)
			continue
		}
		ms := float64(r.lat) / float64(time.Millisecond)
		lat = append(lat, ms)
		if r.op.hot {
			hotLat = append(hotLat, ms)
		} else {
			coldLat = append(coldLat, ms)
		}
		if !cfg.trace {
			continue
		}
		respBytes += r.bytes
		latSum += ms
		if r.status.Cached {
			overhead += ms
		} else {
			coldSum += ms
			overhead += ms - r.status.QueuedMS - r.status.RunMS
			queued += r.status.QueuedMS
			runMS += r.status.RunMS
		}
	}

	logDist("serve hot ms", hotLat)
	logDist("serve cold ms", coldLat)
	if !cfg.trace {
		res.set("setup_s", setupS, "s")
		res.set("op_s", median(coldLat)/1e3, "s")
		res.set("rate_per_s", float64(len(lat))/window.Seconds(), "1/s")
		return res, nil
	}

	// Traced run: the solver layers come from the traced replay of this
	// run's cold requests (checked equal to the untraced replay, which is
	// checked equal to the served results above); the serving layers from
	// the clients' latencies against the server's own queue/run times.
	// trace.overhead_ratio is the traced replay's time over the untraced
	// replay's.
	points := 0
	for _, r := range cold {
		points += len(coldLib[r.status].Contour.Points)
	}
	if err := reportLayers(res, "serve-cold-replay", rec.snapshot(), len(cold), points, false); err != nil {
		return nil, err
	}
	n := float64(res.Attempted)
	req, hits := float64(core.Requests.Load()-req0), float64(core.ResultCacheHits.Load()-hits0)
	calH, calM := st.eng.CacheStats()
	res.set("jobcore.queue_share", ratio(queued, coldSum), "ratio")
	res.set("jobcore.run_share", ratio(runMS, coldSum), "ratio")
	res.set("jobcore.result_hit_ratio", ratio(hits, req), "ratio")
	res.set("jobcore.coalesced", float64(core.Coalesced.Load()-coal0)/n, "count")
	res.set("engine.cal_cache_hit_ratio", ratio(float64(calH-calH0), float64(calH-calH0+calM-calM0)), "ratio")
	res.set("serve.overhead_share", ratio(overhead, latSum), "ratio")
	res.set("serve.resp_kb", ratio(float64(respBytes), float64(len(lat)))/1e3, "kB")
	res.set("trace.overhead_ratio", ratio(tracedReplay.Seconds(), plainReplay.Seconds()), "ratio")
	printServeLedger(all)
	return res, nil
}

// printServeLedger splits the cold requests' client latency into time
// queued and running in the job core (as the server reports it) and the
// serving layer's own share: HTTP, JSON and routing on both ends.
func printServeLedger(all []opRecord) {
	var wall, q, run float64
	for _, r := range all {
		if r.err != nil || r.op.hot || r.status.Cached {
			continue
		}
		wall += r.lat.Seconds()
		q += r.status.QueuedMS / 1e3
		run += r.status.RunMS / 1e3
	}
	rows := []ledgerRow{{"jobcore.run", run}, {"jobcore.queue", q}, {"serve", wall - q - run}}
	printLedger(os.Stderr, "serve (cold requests, client view)", rows, 0, wall, wall)
}

// sameResponse checks a served result against the library's for the same
// request: equal sims counts and the same contour.
func sameResponse(got *serveclient.ResultJSON, want *latchchar.Result) error {
	if got.PlainSims != want.PlainSims || got.GradSims != want.GradSims {
		return fmt.Errorf("served %d+%d sims, library %d+%d", got.PlainSims, got.GradSims, want.PlainSims, want.GradSims)
	}
	pts := make(polyline, len(got.Contour))
	for i, p := range got.Contour {
		pts[i] = [2]float64{p.TauSPs, p.TauHPs}
	}
	return checkContour(pts, contourPS(want.Contour), contourTolPS, true)
}
