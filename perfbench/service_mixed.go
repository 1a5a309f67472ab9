package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"op2ca/internal/cmdutil"
	"op2ca/internal/faults"
	"op2ca/internal/mesh"
	"op2ca/internal/obs"
	"op2ca/internal/service"
)

// service-mixed: an in-process job service on loopback, driven by closed-
// loop clients that each submit a job, wait on its NDJSON event stream and
// fetch the result before submitting the next. A job is the workload's op.
const (
	svcWorkers  = 2
	svcQueueCap = 4
	svcClients  = 2
	svcNodes    = 6000
	svcRanks    = 8
	// svcSetups is how often the set-up (start, warm-up pass, and for all
	// but the last, shutdown) repeats for its median.
	svcSetups = 3
	// svcJobTimeout bounds one job end to end; a job that exceeds it is
	// failed, so a hung service cannot hang the benchmark.
	svcJobTimeout = 60 * time.Second
)

// serviceSpecs is the job mix the clients cycle through. Iteration counts
// are chosen so the four kinds take similar host time, keeping the latency
// distribution unimodal.
func serviceSpecs(in inputs) []service.JobSpec {
	return []service.JobSpec{
		// CA chains over a lossy network: retries on the faulted path.
		{Tenant: "bench-a", App: "mgcfd", MeshNodes: svcNodes, Ranks: svcRanks, Backend: "ca",
			Iters: 6, Faults: in.faultSpec()},
		// A crash after the first ring generation: supervised restore.
		{Tenant: "bench-b", App: "hydra", MeshNodes: svcNodes, Ranks: svcRanks, Machine: "cirrus",
			Iters: 4, Faults: in.crashSpec()},
		// The standard OP2 back-end.
		{Tenant: "bench-a", App: "mgcfd", MeshNodes: svcNodes, Ranks: svcRanks, Backend: "op2", Iters: 6},
		// CA chains on the overlapped executor.
		{Tenant: "bench-b", App: "hydra", MeshNodes: svcNodes, Ranks: svcRanks, Overlap: true, Iters: 4},
	}
}

// served is one running service with its HTTP front end.
type served struct {
	svc  *service.Service
	srv  *http.Server
	base string
	done chan error
	dir  string
}

// startService starts the service with its data directory under root and
// serves it on a loopback port the OS picks.
func startService(root string) (*served, error) {
	dir, err := os.MkdirTemp(root, "service-*")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{Workers: svcWorkers, QueueCap: svcQueueCap, DataDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &served{svc: svc, srv: &http.Server{Handler: service.NewHandler(svc)},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1), dir: dir}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server down, waits for it, drains the service and
// removes its data directory.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.svc.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// jobSample is one served job as a client saw it.
type jobSample struct {
	kind                                      int
	latencyMs                                 float64
	submitMs, queueMs, runMs, lagMs, resultMs float64
	result                                    *service.Result
	failure                                   string // "" when the job succeeded
}

// client submits jobs over HTTP.
type client struct {
	hc   *http.Client
	base string
}

// job runs spec through the service: POST, stream events to the terminal
// state, GET the result.
func (c *client) job(kind int, spec service.JobSpec) jobSample {
	js := jobSample{kind: kind}
	ctx, cancel := context.WithTimeout(context.Background(), svcJobTimeout)
	defer cancel()
	body, err := json.Marshal(spec)
	if err != nil {
		js.failure = err.Error()
		return js
	}
	start := time.Now()
	var view service.JobView
	status, err := c.do(ctx, http.MethodPost, "/v1/jobs", body, &view)
	switch {
	case err != nil:
		js.failure = "submit: " + err.Error()
		return js
	case status == http.StatusTooManyRequests:
		js.failure = "submit shed (429)"
		return js
	case status != http.StatusAccepted:
		js.failure = fmt.Sprintf("submit: HTTP %d", status)
		return js
	}

	evs, recv, err := c.events(ctx, view.ID)
	if err != nil {
		js.failure = "events: " + err.Error()
		return js
	}
	var queued, running, last *service.Event
	for i := range evs {
		e := &evs[i]
		switch {
		case e.State == service.StateQueued && queued == nil:
			queued = e
		case e.State == service.StateRunning && running == nil:
			running = e
		}
		last = e
	}
	if last == nil || last.State != service.StateDone {
		js.failure = fmt.Sprintf("job %s ended %v", view.ID, stateOf(last))
		return js
	}
	// The job's critical path on one clock: submit until the service
	// enqueued it, queued until placed, running until the terminal event,
	// terminal event until the client received it, then the result fetch.
	if queued != nil && running != nil {
		js.submitMs = ms(queued.Time.Sub(start))
		js.queueMs = ms(running.Time.Sub(queued.Time))
		js.runMs = ms(last.Time.Sub(running.Time))
	}
	js.lagMs = ms(recv.Sub(last.Time))

	t := time.Now()
	var res service.Result
	status, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+view.ID+"/result", nil, &res)
	js.resultMs = ms(time.Since(t))
	js.latencyMs = ms(time.Since(start))
	switch {
	case err != nil:
		js.failure = "result: " + err.Error()
	case status != http.StatusOK:
		js.failure = fmt.Sprintf("result: HTTP %d", status)
	default:
		js.result = &res
	}
	return js
}

func stateOf(e *service.Event) string {
	if e == nil {
		return "without events"
	}
	return string(e.State)
}

// do sends one request and decodes a JSON response body into out when the
// status is 2xx.
func (c *client) do(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return resp.StatusCode, nil
}

// events reads the job's NDJSON stream until its terminal event and
// returns the events with the time the terminal one was received.
func (c *client) events(ctx context.Context, id string) ([]service.Event, time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, time.Time{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, time.Time{}, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var evs []service.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e service.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, time.Time{}, err
		}
		evs = append(evs, e)
		if e.State.Terminal() {
			return evs, time.Now(), nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, time.Time{}, err
	}
	return nil, time.Time{}, fmt.Errorf("stream ended before a terminal event")
}

// drive runs svcClients closed-loop clients against s until budget has
// elapsed and at least minJobs were started, cycling through specs.
func drive(s *served, specs []service.JobSpec, budget time.Duration, minJobs int) ([]jobSample, float64) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * svcClients}}
	defer hc.CloseIdleConnections()
	c := &client{hc: hc, base: s.base}
	var next atomic.Int64
	var mu sync.Mutex
	var out []jobSample
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < svcClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1) - 1
				if n >= int64(minJobs) && time.Since(start) >= budget {
					return
				}
				k := int(n) % len(specs)
				js := c.job(k, specs[k])
				mu.Lock()
				out = append(out, js)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start).Seconds()
}

// oracle is a spec's expected result, from service.RunDirect.
type oracle struct {
	Checksum string  `json:"checksum"`
	MaxClock float64 `json:"max_clock_seconds"`
}

func runServiceMixed(o opts, r *report) error {
	in := newInputs(o.seed)
	specs := serviceSpecs(in)
	r.info["job_specs"] = specs

	// Set-up: start the service and serve one warm-up pass of the mix;
	// repeated for the median, the last instance is kept.
	var setups samples
	var s *served
	for i := 0; i < svcSetups; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return fmt.Errorf("stopping service: %w", err)
			}
		}
		start := time.Now()
		var err error
		if s, err = startService(o.workdir); err != nil {
			return fmt.Errorf("starting service: %w", err)
		}
		warm, _ := drive(s, specs, 0, len(specs))
		setups = append(setups, time.Since(start).Seconds())
		for _, js := range warm {
			if js.failure != "" {
				r.tally.fail("warm-up job: " + js.failure)
			}
		}
	}
	defer func() {
		if err := s.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: stopping service: %v\n", err)
		}
	}()
	r.set("setup_s", setups.middle(), len(setups), "median of set-ups")

	// Oracle: every served result must equal RunDirect of its spec.
	want := make([]oracle, len(specs))
	var sim float64
	for k, spec := range specs {
		dir := filepath.Join(o.workdir, fmt.Sprintf("direct-%d", k))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		res, err := service.RunDirect(spec, dir)
		if err != nil {
			return fmt.Errorf("oracle for job kind %d: %w", k, err)
		}
		want[k] = oracle{res.Checksum, res.MaxClockSeconds}
		sim += res.MaxClockSeconds
	}
	r.info["oracle"] = want

	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	// The untraced phase of a traced run reports only its median.
	minJobs := max(minSamplesFor(90), len(specs))
	if o.trace {
		minJobs = minSamplesFor(50)
	}
	jobs, wall := drive(s, specs, budget, minJobs)
	lat := judgeJobs(&r.tally, want, jobs)
	byKind := make([]samples, len(specs))
	for _, js := range jobs {
		byKind[js.kind] = append(byKind[js.kind], js.latencyMs)
	}
	var kindP50 []float64
	for _, ks := range byKind {
		kindP50 = append(kindP50, ks.middle())
	}
	r.info["job_ms_p50_by_kind"] = kindP50
	r.info["working_set_bytes"] = heapInUse()
	if !o.trace {
		r.pct("op_ms_p50", lat, 50)
		r.pct("op_ms_p90", lat, 90)
		r.set("ops_per_s", float64(len(lat))/wall, len(lat), "")
		r.set("sim_s", sim, len(specs), "sum of max_clock_seconds over one pass of the mix")
		r.alias("job_ms_p50", "op_ms_p50")
		r.alias("job_ms_p90", "op_ms_p90")
		r.alias("jobs_per_s", "ops_per_s")
		r.set("mem_mb", memMiB(), 0, "")
		return nil
	}

	untracedP50, _ := lat.median()
	tjobs, _ := drive(s, specs, budget, minSamplesFor(50))
	tlat := judgeJobs(&r.tally, want, tjobs)
	var sub, queue, run, lag, resMs, total, restarts, attempts float64
	var retries, exchanges int64
	var n float64
	for _, js := range tjobs {
		if js.result == nil {
			continue
		}
		n++
		sub += js.submitMs
		queue += js.queueMs
		run += js.runMs
		lag += js.lagMs
		resMs += js.resultMs
		total += js.latencyMs
		restarts += float64(js.result.Restarts)
		attempts += float64(js.result.Attempts)
		exchanges += int64(js.result.Exchanges)
		if js.result.Faults != nil {
			retries += js.result.Faults.Retries
		}
	}
	for name, v := range map[string]float64{"submit": sub, "queue": queue, "run": run, "events_lag": lag, "result": resMs} {
		r.set("service."+name+"_frac", ratio(v, total), int(n), "share of job latency")
		r.info["service."+name+"_ms_mean"] = ratio(v, n)
	}
	r.set("supervise.restarts_per_job", ratio(restarts, n), int(n), "")
	r.set("service.attempts_per_job", ratio(attempts, n), int(n), "")
	tp50, _ := tlat.median()
	r.set("bench.trace_overhead_frac", tp50/untracedP50-1, len(tlat), "")
	r.set("bench.unattributed_frac", 1-ratio(sub+queue+run+lag+resMs, total), 0, "")

	// The cluster-side layers are not reachable inside the service: time
	// them on a direct replica of each job kind at the served size. The
	// checkpoint timings come from the mgcfd CA replica.
	return replicaLayers(o, r, specs, in, ratio(float64(retries), float64(exchanges)))
}

// replicaLayers builds each job kind's app and backend directly, as a
// served job does, timing every layer call; crash clauses are disarmed
// (supervision is the service's part).
func replicaLayers(o opts, r *report, specs []service.JobSpec, in inputs, retriesPerExchange float64) error {
	led := newLedger()
	var tot counters
	var misses samples
	var vt vtTotals
	var allocs uint64
	var iters float64
	var ck ckptTiming
	for _, js := range specs {
		spec, err := replicaSpec(js)
		if err != nil {
			return err
		}
		spec.tracer = obs.New()
		var m *mesh.FV3D
		var h *mesh.Hierarchy
		led.time("mesh.gen_ms", func() {
			m = mesh.RotorForNodes(js.MeshNodes)
			if spec.app == "mgcfd" {
				h = mesh.NewHierarchy(m, spec.levels, true)
			}
		})
		res := runProgram(spec, m, h, in, led, js.Iters, true)
		cfg := res.cfg
		led.time("halo.build_ms", func() { check(buildHalo(cfg)) })
		led.time("ca.inspect_ms", func() { check(res.prog.inspect()) })
		tot.add(res.counters)
		misses = append(misses, float64(res.counters.misses))
		allocs += res.mallocs
		iters += float64(js.Iters)
		vt.add(res.profile)
		if spec.app == "mgcfd" && spec.ca {
			if ck, err = measureCheckpoint(res.backend, res.cfg, o.workdir); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		} else {
			res.backend.Close()
		}
	}
	layerTimings(r, led)
	r.pct("cluster.iter_ms", led.get("cluster.iter_ms"), 50)
	r.pct("cluster.chain_ms", led.get("cluster.chain_ms"), 50)
	r.pct("cluster.cycle_ms", led.get("cluster.cycle_ms"), 50)
	r.set("cluster.allocs_per_iter", float64(allocs)/iters, int(iters), "replica iterations")
	r.set("cluster.plan_hit_ratio", ratio(float64(tot.hits), float64(tot.hits+tot.misses)), 0, "")
	r.set("cluster.plan_misses_per_backend", misses.mean(), len(misses), "")
	r.set("cluster.redundant_frac", ratio(float64(tot.halo), float64(tot.core+tot.halo)), 0, "")
	r.set("netsim.msgs_per_iter", float64(tot.msgs)/iters, int(iters), "")
	r.set("netsim.bytes_per_iter", float64(tot.bytes)/iters, int(iters), "")
	r.set("faults.retries_per_exchange", retriesPerExchange, 0, "served jobs")
	layerVT(r, vt, float64(len(specs)), "per job")
	layerCheckpoint(r, ck)
	return nil
}

// replicaSpec is the appSpec a served job runs under: the service's
// defaults (two multigrid levels and two chain pairs for mgcfd, KWay for
// mgcfd, RIB for hydra, ARCHER2) on one host thread.
func replicaSpec(js service.JobSpec) (appSpec, error) {
	spec := appSpec{app: js.App, levels: 2, nchains: 2, ranks: js.Ranks,
		ca: js.Backend != "op2", overlap: js.Overlap, partition: "kway"}
	if js.App == "hydra" {
		spec.partition = "rib"
	}
	name := js.Machine
	if name == "" {
		name = "archer2"
	}
	var err error
	if spec.machine, err = cmdutil.MachineByName(name); err != nil {
		return spec, err
	}
	if js.Faults != "" {
		if spec.faults, err = faults.Parse(js.Faults); err != nil {
			return spec, err
		}
	}
	return spec, nil
}

// judgeJobs tallies served jobs against their oracles and returns the
// latencies of the successful ones. A job that failed in the service, was
// shed with a 429, or whose checksum or virtual clock differs from
// RunDirect of its spec is a failed operation.
func judgeJobs(t *tally, want []oracle, jobs []jobSample) samples {
	var lat samples
	for _, js := range jobs {
		w := want[js.kind]
		switch {
		case js.failure != "":
			t.fail(js.failure)
		case js.result.Checksum != w.Checksum || js.result.MaxClockSeconds != w.MaxClock:
			t.fail(fmt.Sprintf("job kind %d: served checksum %s clock %v, direct %s clock %v",
				js.kind, js.result.Checksum, js.result.MaxClockSeconds, w.Checksum, w.MaxClock))
		default:
			t.ok()
			lat = append(lat, js.latencyMs)
		}
	}
	return lat
}
