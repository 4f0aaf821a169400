package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/persist"
	"repro/internal/pkggraph"
	"repro/internal/server"
	"repro/internal/spec"
)

// The traced run replays the workload's request stream in-process:
//
//   - an untraced HTTP pass through the deployment's handlers, for the
//     request p50 the tracing overhead is measured against and for
//     allocations per request;
//   - the same pass with spans around each handler (and, on a fleet,
//     around the master's forward), which splits the round trip into
//     transport and handler time;
//   - a pipeline pass that calls the layers' public functions in the
//     order the server does (decode, lookup, spec construction,
//     core.Manager.Request with the WAL commit hook, WaitDurable,
//     encode), with a span around each call. The handler time the
//     pipeline does not account for is reported as server.other_us;
//   - on standalone workloads, a traced fleet pass over the same
//     stream for the fleet layer metrics;
//   - an empty handler on the same client: the loopback floor.
//
// Every pass is serial over one connection and starts from empty
// state, so each sees the same requests and makes the same decisions.

// stack is an in-process deployment serving on loopback listeners.
type stack struct {
	url  string
	stop []func()
}

func (s *stack) close() {
	for i := len(s.stop) - 1; i >= 0; i-- {
		s.stop[i]()
	}
	s.stop = nil
}

func serveOn(addr string, h http.Handler) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		hs.Serve(ln)
		close(done)
	}()
	return func() {
		hs.Close()
		<-done
	}, nil
}

// buildStack starts the deployment dep (configs written by configure)
// in-process. t, when non-nil, records handler and forward spans.
func buildStack(dep *deployment, repo *pkggraph.Repo, t *tracer, fleetMode bool) (*stack, error) {
	s := &stack{url: dep.entry.url()}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	if fleetMode {
		site, err := config.Load(dep.entry.cfgPath)
		if err != nil {
			return nil, err
		}
		mcfg := site.FleetMasterConfig()
		if t != nil {
			tr := &tracedTransport{t: t, base: &http.Transport{MaxIdleConnsPerHost: 4}}
			mcfg.TransportFor = func(string) http.RoundTripper { return tr }
		}
		m := fleet.NewMaster(mcfg)
		s.stop = append(s.stop, m.StartSweeper(site.HeartbeatInterval()))
		stop, err := serveOn(site.Addr, tracedHandler(t, "fleet.master_handler", m.Handler()))
		if err != nil {
			return nil, err
		}
		s.stop = append(s.stop, stop)
	}
	for gen, d := range dep.nodes {
		site, err := config.Load(d.cfgPath)
		if err != nil {
			return nil, err
		}
		store, err := persist.Open(site.StateDir, site.PersistOptions())
		if err != nil {
			return nil, err
		}
		srv, _, err := server.NewPersistent(repo, site.CoreConfig(repo), store, site.CheckpointEveryRequests)
		if err != nil {
			store.Close()
			return nil, err
		}
		s.stop = append(s.stop, func() { store.Close() })
		h := srv.Handler()
		name := "server.handler"
		var agent *fleet.Agent
		if fleetMode {
			agent = fleet.NewAgent(site.FleetAgentConfig(uint64(gen+1)), srv)
			h = agent.Handler()
			name = "fleet.agent_handler"
		}
		stop, err := serveOn(site.Addr, tracedHandler(t, name, h))
		if err != nil {
			return nil, err
		}
		s.stop = append(s.stop, stop)
		if agent != nil {
			if err := agent.BeatNow(context.Background()); err != nil {
				return nil, fmt.Errorf("registering %s: %w", d.name, err)
			}
			s.stop = append(s.stop, agent.Start())
		}
	}
	if fleetMode {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := pollReady(ctx, newClient(1), "in-process master", s.url, nil); err != nil {
			return nil, err
		}
	}
	ok = true
	return s, nil
}

// httpStep sends request i and returns its round trip in µs and the
// reply.
func httpStep(hc *http.Client, url string, st *stream, i int, t *tracer) (float64, reply, error) {
	t.setReq(i)
	root := t.begin("request")
	start := time.Now()
	rep, status, err := post(hc, url, st.body(i))
	d := time.Since(start)
	t.end(root)
	if err := checkReply(sample{idx: i, rep: rep, status: status, err: err}); err != nil {
		return 0, reply{}, err
	}
	return us(d), rep, nil
}

// httpPass sends requests [0, n) of the stream serially.
func httpPass(hc *http.Client, url string, st *stream, n int, t *tracer) (rtt []float64, agents []string, err error) {
	for i := 0; i < n; i++ {
		d, rep, err := httpStep(hc, url, st, i, t)
		if err != nil {
			return nil, nil, err
		}
		rtt = append(rtt, d)
		agents = append(agents, rep.Agent)
	}
	return rtt, agents, nil
}

// timedCommit is the WAL commit hook with a span around each append.
type timedCommit struct {
	t     *tracer
	store *persist.Store
}

func (c timedCommit) Commit(mut core.Mutation) {
	id := c.t.begin("persist.commit")
	c.store.Commit(mut)
	c.t.end(id)
}

// pipelineNode is one cache node of the pipeline pass.
type pipelineNode struct {
	mgr   *core.Manager
	store *persist.Store
	fs    *countingFS
	site  config.Site
	dir   string
	since int // requests since the last checkpoint
}

func newPipelineNode(cfgPath string, repo *pkggraph.Repo, t *tracer) (*pipelineNode, error) {
	site, err := config.Load(cfgPath)
	if err != nil {
		return nil, err
	}
	cfs := &countingFS{}
	opts := site.PersistOptions()
	opts.FS = cfs
	store, err := persist.Open(site.StateDir, opts)
	if err != nil {
		return nil, err
	}
	// Recover opens the first WAL segment; its manager is replaced by
	// one whose commit hook times each append into the same store.
	if _, _, err := store.Recover(repo, site.CoreConfig(repo)); err != nil {
		store.Close()
		return nil, err
	}
	cfs.t = t // spans from here on belong to the pass
	cfg := site.CoreConfig(repo)
	cfg.Commit = timedCommit{t: t, store: store}
	mgr, err := core.NewManager(repo, cfg)
	if err != nil {
		store.Close()
		return nil, err
	}
	return &pipelineNode{mgr: mgr, store: store, fs: cfs, site: site, dir: site.StateDir}, nil
}

// requestBody and responseBody mirror the /v1/request JSON shapes.
type requestBody struct {
	Packages []string `json:"packages"`
	Close    bool     `json:"close"`
}

type responseBody struct {
	Op           string `json:"op"`
	ImageID      uint64 `json:"image_id"`
	ImageVersion uint64 `json:"image_version"`
	ImageSize    int64  `json:"image_size"`
	RequestBytes int64  `json:"request_bytes"`
	BytesWritten int64  `json:"bytes_written"`
	Evicted      int    `json:"evicted"`
	Packages     int    `json:"packages"`
}

// pipeline is the pass through the layers' public functions and its
// counts. Each request's outcome must equal the reply the traced HTTP
// pass got for it, so that the layers it times did the handler's work.
type pipeline struct {
	repo      *pkggraph.Repo
	st        *stream
	t         *tracer
	chk       *checker
	ops       map[string]int
	evicted   int
	pkgs      int
	bodyBytes int
	out       bytes.Buffer
}

// step runs request i through the layers on node, in the order the
// server calls them, with a span around each call, and checks the
// outcome against want, the HTTP pass's reply.
func (p *pipeline) step(i int, node *pipelineNode, want reply) error {
	t := p.t
	body := p.st.body(i)
	p.bodyBytes += len(body)
	t.setReq(i)
	root := t.begin("pipeline")
	defer t.end(root)

	id := t.begin("server.decode")
	var req requestBody
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	t.end(id)
	if err != nil {
		return err
	}

	id = t.begin("pkggraph.lookup")
	ids := make([]pkggraph.PkgID, 0, len(req.Packages))
	for _, k := range req.Packages {
		pid, ok := p.repo.Lookup(k)
		if !ok {
			t.end(id)
			return fmt.Errorf("request %d: unknown package %q", i, k)
		}
		ids = append(ids, pid)
	}
	t.end(id)

	id = t.begin("spec.closure")
	var sp spec.Spec
	if req.Close {
		sp = spec.WithClosure(p.repo, ids)
	} else {
		sp = spec.New(ids)
	}
	t.end(id)
	p.pkgs += sp.Len()

	id = t.begin("core.request")
	res, err := node.mgr.Request(sp)
	t.endOp(id, res.Op.String())
	if err != nil {
		return err
	}
	p.ops[res.Op.String()]++
	p.evicted += res.Evicted
	if res.Op.String() != want.Op || res.ImageSize != want.ImageSize || sp.Len() != want.Packages {
		p.chk.fail("request %d: pipeline %s of %d bytes, %d packages; handler %s of %d bytes, %d packages",
			i, res.Op, res.ImageSize, sp.Len(), want.Op, want.ImageSize, want.Packages)
	}

	// The server's compaction threshold, as maybeCheckpoint applies it.
	node.since++
	if ce := node.site.CheckpointEveryRequests; ce > 0 && node.since >= ce {
		id = t.begin("persist.checkpoint")
		_, err := node.store.Checkpoint(node.mgr.ExportState())
		t.end(id)
		if err != nil {
			return err
		}
		node.since = 0
	}

	id = t.begin("persist.wait_durable")
	err = node.store.WaitDurable()
	t.end(id)
	if err != nil {
		return err
	}

	id = t.begin("server.encode")
	p.out.Reset()
	err = json.NewEncoder(&p.out).Encode(responseBody{
		Op: res.Op.String(), ImageID: res.ImageID, ImageVersion: res.ImageVersion,
		ImageSize: res.ImageSize, RequestBytes: res.RequestBytes, BytesWritten: res.BytesWritten,
		Evicted: res.Evicted, Packages: sp.Len(),
	})
	t.end(id)
	return err
}

// layerReport is the traced run's outcome.
type layerReport struct {
	Requests int                `json:"requests"`
	Metrics  map[string]metric  `json:"metrics"`
	Account  map[string]float64 `json:"accounting_us"`
}

func (lr *layerReport) print() {
	names := make([]string, 0, len(lr.Metrics))
	for n := range lr.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "  traced replay of %d requests:\n", lr.Requests)
	for _, n := range names {
		m := lr.Metrics[n]
		fmt.Fprintf(os.Stderr, "    %-28s %12.4f %s\n", n, m.Value, m.Unit)
	}
	acc := make([]string, 0, len(lr.Account))
	for n := range lr.Account {
		acc = append(acc, n)
	}
	sort.Strings(acc)
	fmt.Fprintf(os.Stderr, "  mean traced request, accounted by layer (µs):\n")
	for _, n := range acc {
		fmt.Fprintf(os.Stderr, "    %-28s %12.2f\n", n, lr.Account[n])
	}
}

// traceRun is the --trace 1 part of a run. Its correctness failures go
// to chk.
func traceRun(o options, w workload, repo *pkggraph.Repo, st *stream, dir string, run daemonRun, chk *checker) (*layerReport, error) {
	n := st.prefix + w.traceRequests
	if n > len(st.order) {
		n = len(st.order)
	}
	hc := newClient(1)
	spansPath := filepath.Join(o.root, ".bench_build", "perfbench", "runs",
		fmt.Sprintf("%s-seed%d-spans.jsonl", w.name, o.seed))
	spansOut, err := os.Create(spansPath)
	if err != nil {
		return nil, err
	}
	defer spansOut.Close()
	pass := 0
	fresh := func(fleetMode bool) (*deployment, error) {
		pass++
		d := filepath.Join(dir, fmt.Sprintf("pass%d", pass))
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		ww := w
		ww.fleet = fleetMode
		if fleetMode && !w.fleet {
			// The standalone workload's stream through the fleet
			// deployment: agents keep the example agent capacity.
			ww.capacityRepos = 0
			ww.fsync = ""
		}
		return configure(o, ww, repo, d)
	}

	// Untraced pass.
	dep, err := fresh(w.fleet)
	if err != nil {
		return nil, err
	}
	stk, err := buildStack(dep, repo, nil, w.fleet)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain, _, err := httpPass(hc, stk.url, st, n, nil)
	runtime.ReadMemStats(&ms1)
	stk.close()
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}

	// Traced HTTP pass, interleaved request by request with the
	// pipeline pass so both run under the same machine conditions. On a
	// fleet the pipeline routes each request to the agent that served it.
	th, tp := newTracer(), newTracer()
	if dep, err = fresh(w.fleet); err != nil {
		return nil, err
	}
	if stk, err = buildStack(dep, repo, th, w.fleet); err != nil {
		return nil, err
	}
	defer stk.close()
	pdep, err := fresh(w.fleet)
	if err != nil {
		return nil, err
	}
	var nodes []*pipelineNode
	index := map[string]int{}
	for i, d := range pdep.nodes {
		pn, err := newPipelineNode(d.cfgPath, repo, tp)
		if err != nil {
			return nil, err
		}
		defer pn.store.Close()
		nodes = append(nodes, pn)
		index[d.name] = i
	}
	type fsCount struct {
		writes, walBytes, fsyncs int64
		fsyncTime                time.Duration
	}
	var fs0 []fsCount
	for _, pn := range nodes {
		fs0 = append(fs0, fsCount{pn.fs.writes, pn.fs.walBytes, pn.fs.fsyncs, pn.fs.fsyncTime})
	}
	pl := &pipeline{repo: repo, st: st, t: tp, chk: chk, ops: map[string]int{}}
	traced := make([]float64, 0, n)
	agents := make([]string, 0, n)
	for i := 0; i < n; i++ {
		d, rep, err := httpStep(hc, stk.url, st, i, th)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		traced = append(traced, d)
		agents = append(agents, rep.Agent)
		node := nodes[0]
		if w.fleet {
			node = nodes[index[rep.Agent]]
		}
		if err := pl.step(i, node, rep); err != nil {
			return nil, fmt.Errorf("pipeline pass: %w", err)
		}
	}
	var fl fleetLayer
	if w.fleet {
		if fl, err = fleetMetrics(hc, stk.url, st, n, agents, th); err != nil {
			return nil, err
		}
	}
	stk.close()
	var writes, walBytes, fsyncs int64
	var fsyncTime time.Duration
	resident := 0
	for i, pn := range nodes {
		writes += pn.fs.writes - fs0[i].writes
		walBytes += pn.fs.walBytes - fs0[i].walBytes
		fsyncs += pn.fs.fsyncs - fs0[i].fsyncs
		fsyncTime += pn.fs.fsyncTime - fs0[i].fsyncTime
		resident += pn.mgr.Len()
	}
	for _, x := range []struct {
		t    *tracer
		pass string
	}{{th, "http"}, {tp, "pipeline"}} {
		if err := x.t.writeSpans(spansOut, x.pass); err != nil {
			return nil, err
		}
	}
	ht, pt := th.aggregate(n), tp.aggregate(n)

	// Recovery replay and checkpoint cost on the pipeline's state.
	replay, ckpt, err := persistCosts(repo, nodes[0])
	if err != nil {
		return nil, err
	}

	// Fleet layers on a standalone workload's stream.
	if !w.fleet {
		tf := newTracer()
		if dep, err = fresh(true); err != nil {
			return nil, err
		}
		if stk, err = buildStack(dep, repo, tf, true); err != nil {
			return nil, err
		}
		var fagents []string
		if _, fagents, err = httpPass(hc, stk.url, st, n, tf); err == nil {
			fl, err = fleetMetrics(hc, stk.url, st, n, fagents, tf)
		}
		stk.close()
		if err != nil {
			return nil, fmt.Errorf("fleet pass: %w", err)
		}
		if err := tf.writeSpans(spansOut, "fleet"); err != nil {
			return nil, err
		}
	}

	floor, floorMallocs, err := loopbackFloor(hc, st, n)
	if err != nil {
		return nil, err
	}

	// Derived layer numbers, µs per request.
	handlerName := "server.handler"
	if w.fleet {
		handlerName = "fleet.agent_handler"
	}
	handler := ht.perReq(ht.dur, handlerName)
	transport := ht.perReq(ht.self, "request")
	if w.fleet {
		transport += ht.perReq(ht.self, "fleet.forward")
	}
	layers := map[string]float64{
		"server.decode":        pt.perReq(pt.self, "server.decode"),
		"pkggraph.lookup":      pt.perReq(pt.self, "pkggraph.lookup"),
		"spec.closure":         pt.perReq(pt.self, "spec.closure"),
		"core.request":         pt.perReq(pt.self, "core.request"),
		"persist.commit":       pt.perReq(pt.self, "persist.commit"),
		"persist.fsync":        pt.perReq(pt.self, "persist.fsync"),
		"persist.wait_durable": pt.perReq(pt.self, "persist.wait_durable"),
		"persist.checkpoint":   pt.perReq(pt.self, "persist.checkpoint"),
		"server.encode":        pt.perReq(pt.self, "server.encode"),
	}
	var attributed float64
	for _, v := range layers {
		attributed += v
	}
	other := handler - attributed
	if other < 0 {
		chk.fail("the pipeline's layers took %.1f µs a request, more than the %.1f µs handler they make up", attributed, handler)
	}
	p50plain := median(plain)
	p50traced := median(traced)
	requestMean := ht.perReq(ht.dur, "request")

	lr := &layerReport{Requests: n, Metrics: map[string]metric{}, Account: map[string]float64{}}
	for k, v := range layers {
		lr.Account[k] = v
	}
	lr.Account["server.other (unattributed)"] = other
	lr.Account["server.transport"] = transport
	if w.fleet {
		lr.Account["fleet.master_self"] = ht.perReq(ht.self, "fleet.master_handler")
	}
	lr.Account["= request (traced mean)"] = requestMean

	total := float64(n)
	m := lr.Metrics
	m["driver.lag_p99_ms"] = metric{run.lagP99MS, "ms"}
	m["driver.achieved_rps"] = metric{run.achievedRPS, "rps"}
	m["driver.latency_p90_ms"] = metric{run.p90MS, "ms"}
	m["driver.latency_p99_ms"] = metric{run.p99MS, "ms"}
	m["server.decode_us"] = metric{layers["server.decode"], "us"}
	m["server.body_bytes"] = metric{float64(pl.bodyBytes) / total, "bytes"}
	m["server.encode_us"] = metric{layers["server.encode"], "us"}
	m["server.handler_us"] = metric{handler, "us"}
	m["server.other_us"] = metric{other, "us"}
	m["server.transport_us"] = metric{transport, "us"}
	m["server.loopback_floor_us"] = metric{floor, "us"}
	m["server.allocs_per_req"] = metric{float64(ms1.Mallocs-ms0.Mallocs)/total - floorMallocs, "count"}
	m["pkggraph.lookup_us"] = metric{layers["pkggraph.lookup"], "us"}
	m["spec.closure_us"] = metric{layers["spec.closure"], "us"}
	m["spec.closure_pkgs"] = metric{float64(pl.pkgs) / total, "count"}
	for _, op := range []string{"hit", "merge", "insert"} {
		m["core."+op+"_us"] = metric{ratio(pt.opSelf[op], float64(pt.opCount[op])), "us"}
		m["core."+op+"_share"] = metric{float64(pl.ops[op]) / total, "fraction"}
	}
	m["core.evictions_per_req"] = metric{float64(pl.evicted) / total, "count"}
	m["core.images_resident"] = metric{float64(resident), "count"}
	m["core.lock_wait_read_us"] = metric{run.lockReadUS, "us"}
	m["core.lock_wait_write_us"] = metric{run.lockWriteUS, "us"}
	m["persist.commit_us"] = metric{layers["persist.commit"], "us"}
	m["persist.wal_bytes_per_req"] = metric{float64(walBytes) / total, "bytes"}
	m["persist.writes_per_req"] = metric{float64(writes) / total, "count"}
	m["persist.fsync_us"] = metric{ratio(us(fsyncTime), float64(fsyncs)), "us"}
	m["persist.fsyncs_per_req"] = metric{float64(fsyncs) / total, "count"}
	m["persist.wait_durable_us"] = metric{pt.perReq(pt.dur, "persist.wait_durable"), "us"}
	m["persist.checkpoint_ms"] = metric{ckpt, "ms"}
	m["persist.replay_ms"] = metric{replay, "ms"}
	m["fleet.route_key_us"] = metric{fl.routeKeyUS, "us"}
	m["fleet.master_self_us"] = metric{fl.masterSelfUS, "us"}
	m["fleet.forward_rtt_us"] = metric{fl.forwardUS, "us"}
	m["fleet.agent_handler_us"] = metric{fl.agentUS, "us"}
	m["fleet.agent_skew"] = metric{fl.skew, "ratio"}
	m["fleet.affinity_share"] = metric{fl.affinity, "fraction"}
	m["trace.request_p50_us"] = metric{p50traced, "us"}
	m["trace.overhead_us"] = metric{p50traced - p50plain, "us"}
	return lr, nil
}

// fleetLayer is what a traced fleet pass measures.
type fleetLayer struct {
	routeKeyUS, masterSelfUS, forwardUS, agentUS float64
	skew, affinity                               float64
}

// fleetMetrics derives the fleet layer numbers from a traced fleet
// pass: span means, the agents' request shares, and how often the
// serving agent was not the key's ring owner (an affinity redirect).
func fleetMetrics(hc *http.Client, url string, st *stream, n int, agents []string, t *tracer) (fleetLayer, error) {
	var fl fleetLayer
	owners := map[uint64]string{}
	served := map[string]int{}
	redirected := 0
	var keyTime time.Duration
	for i := 0; i < n; i++ {
		keys := st.keys[st.order[st.index(i)]]
		start := time.Now()
		key := fleet.RouteKey(keys)
		keyTime += time.Since(start)
		owner, ok := owners[key]
		if !ok {
			var info fleet.RouteInfo
			if err := getJSON(hc, url+"/fleet/v1/route?key="+strconv.FormatUint(key, 10), &info); err != nil {
				return fl, err
			}
			owner = info.Owner
			owners[key] = owner
		}
		if agents[i] != owner {
			redirected++
		}
		served[agents[i]]++
	}
	lt := t.aggregate(n)
	fl.routeKeyUS = us(keyTime) / float64(n)
	fl.masterSelfUS = lt.perReq(lt.self, "fleet.master_handler")
	fl.forwardUS = lt.perReq(lt.dur, "fleet.forward")
	fl.agentUS = lt.perReq(lt.dur, "fleet.agent_handler")
	fl.affinity = float64(redirected) / float64(n)
	maxServed := 0
	for _, c := range served {
		if c > maxServed {
			maxServed = c
		}
	}
	// Shares over the two agents of the deployment.
	fl.skew = float64(maxServed) / (float64(n) / 2)
	return fl, nil
}

// persistCosts closes the pipeline node's store, times recovering it
// from its state dir, then times three checkpoints of the recovered
// state. Both are in ms; the checkpoint is their median.
func persistCosts(repo *pkggraph.Repo, pn *pipelineNode) (replayMS, ckptMS float64, err error) {
	if err := pn.store.Close(); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	store, err := persist.Open(pn.dir, pn.site.PersistOptions())
	if err != nil {
		return 0, 0, err
	}
	defer store.Close()
	mgr, _, err := store.Recover(repo, pn.site.CoreConfig(repo))
	if err != nil {
		return 0, 0, err
	}
	replayMS = ms(time.Since(start))
	var ck []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := store.Checkpoint(mgr.ExportState()); err != nil {
			return 0, 0, err
		}
		ck = append(ck, ms(time.Since(start)))
	}
	return replayMS, median(ck), nil
}

// loopbackFloor is the p50 round trip, µs, of the stream's bodies to a
// handler that only drains them, and the allocations per request of
// that pass: the client's and net/http's share of every request.
func loopbackFloor(hc *http.Client, st *stream, n int) (floorUS, mallocs float64, err error) {
	addr, err := freeAddr()
	if err != nil {
		return 0, 0, err
	}
	stop, err := serveOn(addr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf [4096]byte
		for {
			if _, err := r.Body.Read(buf[:]); err != nil {
				break
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"op":"hit","image_size":1,"request_bytes":1,"packages":1}` + "\n"))
	}))
	if err != nil {
		return 0, 0, err
	}
	defer stop()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rtt, _, err := httpPass(hc, "http://"+addr, st, n, nil)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return 0, 0, err
	}
	return median(rtt), float64(ms1.Mallocs-ms0.Mallocs) / float64(n), nil
}
