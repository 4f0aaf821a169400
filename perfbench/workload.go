package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/pkggraph"
	"repro/internal/stats"
)

const (
	maxConns       = 2   // client connections, capped at nproc
	setupRounds    = 5   // set-ups per run; setup_s is their median
	recoveryRounds = 7   // kill -9 restarts per run; recovery_s is their median
	poolTail       = 300 // warm-hits requests between the checkpoint and each kill
	// latencyWindowSamples is the fewest requests in a latency window,
	// whose p50 and p90 the run takes medians of; the p99 is taken over
	// all the phase's requests, so that 10 lie beyond it.
	latencyWindowSamples = 500
	// failedLatencyMS stands for a failed request's latency: longer
	// than any limit, and finite so the run record stays valid JSON.
	failedLatencyMS = 1e9
	// maxSlices is the most fixed-rate and saturation slices the timed
	// phases alternate through.
	maxSlices = 3
	// A fixed-rate slice is late when more than lateShare of its
	// requests were handed to a sender more than lateLagMS after their
	// due time: the load generator itself was held up, so the slice's
	// latencies measure the machine rather than the daemons. A late
	// slice and the saturation slice after it are discarded and the
	// pair is run again on the next requests of the stream, at most
	// lateRetries times in a run; after that the run fails.
	lateLagMS   = 10.0
	lateShare   = 0.01
	lateRetries = 3
)

// errLate fails a run whose load generator was late in more fixed-rate
// slices than it could replace.
var errLate = errors.New("load generator late")

// deployment is the set of daemons one workload runs against.
type deployment struct {
	entry *daemon   // receives /v1/request: the standalone daemon or the master
	nodes []*daemon // hold cache state: the standalone daemon or the agents
	all   []*daemon
}

// configure writes the configs of a fresh deployment under dir.
func configure(o options, w workload, repo *pkggraph.Repo, dir string) (*deployment, error) {
	capacity := func(set map[string]any) {
		if w.capacityRepos > 0 {
			set["capacity_gb"] = w.capacityRepos * float64(repo.TotalSize()) / float64(stats.GB)
		}
		if w.fsync != "" {
			set["fsync"] = w.fsync
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	examples := filepath.Join(o.root, "examples")
	if !w.fleet {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		d := &daemon{name: "standalone", addr: addr, cfgPath: filepath.Join(dir, "standalone.json")}
		set := map[string]any{"addr": addr, "state_dir": filepath.Join(dir, "standalone-state")}
		capacity(set)
		if err := writeConfig(filepath.Join(examples, "site.json"), d.cfgPath, set); err != nil {
			return nil, err
		}
		return &deployment{entry: d, nodes: []*daemon{d}, all: []*daemon{d}}, nil
	}
	maddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	master := &daemon{name: "master", addr: maddr, cfgPath: filepath.Join(dir, "master.json")}
	if err := writeConfig(filepath.Join(examples, "master.json"), master.cfgPath, map[string]any{"addr": maddr}); err != nil {
		return nil, err
	}
	dep := &deployment{entry: master}
	for i := 1; i <= 2; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("agent-%d", i)
		a := &daemon{name: name, addr: addr, cfgPath: filepath.Join(dir, name+".json")}
		// Loopback addresses replace the example's host names; the
		// cache and durability settings stay the example's.
		set := map[string]any{"addr": addr, "state_dir": filepath.Join(dir, name+"-state"),
			"master_url": master.url(), "advertise": a.url(), "agent_id": name}
		capacity(set)
		if err := writeConfig(filepath.Join(examples, "agent.json"), a.cfgPath, set); err != nil {
			return nil, err
		}
		dep.nodes = append(dep.nodes, a)
	}
	// Agents first: launch waits in this order, and the master is not
	// ready until the agents have registered.
	dep.all = append(append(dep.all, dep.nodes...), master)
	return dep, nil
}

// launch starts ds together and returns the time from the first launch
// until every one of them answers /v1/readyz with 200.
func launch(p *procs, hc *http.Client, ds []*daemon) (time.Duration, error) {
	start := time.Now()
	for _, d := range ds {
		if err := p.start(d); err != nil {
			return 0, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, d := range ds {
		if err := waitReady(ctx, hc, d); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// lockWait is the landlord_lock_wait_seconds histogram summed over a
// deployment's cache daemons.
type lockWait struct{ readSum, readCount, writeSum, writeCount float64 }

func scrapeLockWait(hc *http.Client, nodes []*daemon) (lockWait, error) {
	var lw lockWait
	for _, d := range nodes {
		body, err := getBody(hc, d.url()+"/metrics")
		if err != nil {
			return lw, err
		}
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "landlord_lock_wait_seconds_") {
				continue
			}
			f := strings.Fields(line)
			if len(f) != 2 {
				continue
			}
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				continue
			}
			read := strings.Contains(f[0], `path="read"`)
			switch {
			case strings.HasPrefix(f[0], "landlord_lock_wait_seconds_sum") && read:
				lw.readSum += v
			case strings.HasPrefix(f[0], "landlord_lock_wait_seconds_count") && read:
				lw.readCount += v
			case strings.HasPrefix(f[0], "landlord_lock_wait_seconds_sum"):
				lw.writeSum += v
			case strings.HasPrefix(f[0], "landlord_lock_wait_seconds_count"):
				lw.writeCount += v
			}
		}
	}
	return lw, nil
}

// daemonRun holds what the daemon run measured that the traced run
// reports.
type daemonRun struct {
	lagP99MS, achievedRPS   float64
	p90MS, p99MS            float64
	lockReadUS, lockWriteUS float64
}

// runWorkload runs the four phases (set-up, warm-up, fixed rate,
// saturation), the recovery phase, and the correctness checks; with
// trace it adds the traced in-process replay.
func runWorkload(o options, w workload, p *procs, dir string) (*runRecord, result, error) {
	fixedDur, satDur := phaseDurations(o.seconds)
	slices := timedSlices(w, fixedDur)
	sliceFixed, sliceSat := fixedDur/time.Duration(slices), satDur/time.Duration(slices)
	// Arrivals and requests for every slice pair a run may need,
	// late ones replaced included.
	attempts := slices + lateRetries
	repo, err := loadRepo(o.root)
	if err != nil {
		return nil, result{}, err
	}
	st, err := newStream(w, repo, o.seed, time.Duration(attempts)*sliceFixed,
		timedBudget(w, time.Duration(attempts)*sliceFixed, time.Duration(attempts)*sliceSat))
	if err != nil {
		return nil, result{}, err
	}
	conns := min(maxConns, runtime.NumCPU())
	rec := &runRecord{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Connections: conns, OfferedRPS: w.rate, EndToEnd: map[string]metric{}}
	hc := newClient(conns)
	ctl := newClient(4) // readiness probes and stats reads

	// Set-up: launch the deployment setupRounds times on fresh state
	// and keep the last one.
	var dep *deployment
	for r := 0; r < setupRounds; r++ {
		d, err := configure(o, w, repo, filepath.Join(dir, fmt.Sprintf("setup%d", r)))
		if err != nil {
			return nil, result{}, err
		}
		took, err := launch(p, ctl, d.all)
		if err != nil {
			return nil, result{}, err
		}
		rec.SetupRuns = append(rec.SetupRuns, took.Seconds())
		if r < setupRounds-1 {
			for _, x := range d.all {
				p.kill(x)
			}
		}
		dep = d
	}
	url := dep.entry.url()
	var chk checker
	attempted, failed := 0, 0
	count := func(ss []sample) {
		attempted += len(ss)
		failed += chk.replies(ss)
	}
	lw0, err := scrapeLockWait(ctl, dep.nodes)
	if err != nil {
		return nil, result{}, err
	}

	// Warm-up: the serial prefix. On a standalone daemon it is replayed
	// through an in-process core.Manager and must match.
	warm := serial(hc, url, st, 0, st.prefix)
	count(warm)
	if !w.fleet && failed == 0 {
		if err := chk.replayPrefix(dep.entry.cfgPath, repo, st, warm); err != nil {
			return nil, result{}, err
		}
	}

	// The timed phases run as alternating slices, fixed rate then
	// saturation, so a disturbance of the shared machine lasting a few
	// seconds lands in a few windows of both rather than in all of one.
	// Every request is checked; the metrics come from the pairs whose
	// generator was on time. The cache's efficiency is sampled while
	// they run.
	sampler := startEffSampler(ctl, dep.nodes, 500*time.Millisecond)
	var fixed, sat []sample
	var lagMS []float64
	var fixedElapsed time.Duration
	ops := map[string]int{}
	rec.SatOps = map[string]int{}
	cursor := st.prefix
	for k, valid := 0, 0; valid < slices; k++ {
		if k == attempts {
			sampler.stop()
			return nil, result{}, fmt.Errorf("%w in %d of %d fixed-rate slices: latencies invalid", errLate, k-valid, k)
		}
		var arrivals []time.Duration
		for _, off := range st.arrivals {
			if off >= time.Duration(k)*sliceFixed && off < time.Duration(k+1)*sliceFixed {
				arrivals = append(arrivals, off-time.Duration(k)*sliceFixed)
			}
		}
		fs, lag, fel := fixedRate(hc, url, st, cursor, arrivals, conns)
		cursor += len(arrivals)
		ss, sel, next := saturate(hc, url, st, cursor, conns, sliceSat)
		cursor = next
		count(fs)
		count(ss)
		if w.traffic == trafficPool {
			for _, phase := range [][]sample{fs, ss} {
				for _, s := range phase {
					if s.ok() && s.rep.Op != "hit" {
						chk.fail("request %d: warm-hits timed request was a %s", s.idx, s.rep.Op)
					}
				}
			}
		}
		sr := sliceLag(lag)
		rec.Slices = append(rec.Slices, sr)
		if sr.Discarded {
			continue
		}
		valid++
		fixedElapsed += fel
		fixed = append(fixed, fs...)
		for _, l := range lag {
			lagMS = append(lagMS, ms(l))
		}
		lat, err := windowLatency(fs)
		if err != nil {
			return nil, result{}, err
		}
		rec.Latency.Windows = append(rec.Latency.Windows, lat...)
		sat = append(sat, ss...)
		rec.SatWindowsRPS = append(rec.SatWindowsRPS, windowThroughput(ss, sel)...)
	}
	effs, err := sampler.stop()
	if err != nil {
		return nil, result{}, err
	}
	lw1, err := scrapeLockWait(ctl, dep.nodes)
	if err != nil {
		return nil, result{}, err
	}
	var contEff []float64
	okCount := 0
	for _, s := range fixed {
		if checkReply(s) != nil {
			continue
		}
		okCount++
		ops[s.rep.Op]++
		contEff = append(contEff, float64(s.rep.RequestBytes)/float64(s.rep.ImageSize))
	}
	for _, s := range sat {
		if s.ok() {
			rec.SatOps[s.rep.Op]++
		}
	}
	rec.FixedOps = ops
	rec.AchievedRPS = float64(okCount) / fixedElapsed.Seconds()
	rec.SatRequests = len(sat)
	if rec.LagP50MS, err = percentile(lagMS, 0.5); err != nil {
		return nil, result{}, err
	}
	if rec.LagP99MS, err = percentile(lagMS, 0.99); err != nil {
		return nil, result{}, err
	}
	var p50s, p90s []float64
	for _, win := range rec.Latency.Windows {
		p50s = append(p50s, win.P50.Value)
		p90s = append(p90s, win.P90.Value)
	}
	rec.Latency.P50, rec.Latency.P90 = median(p50s), median(p90s)
	if rec.Latency.P99, err = percentile(latenciesMS(fixed), 0.99); err != nil {
		return nil, result{}, err
	}
	// Write amplification over the warm-up and fixed-rate requests: a
	// set the seed fixes, unlike the saturation phase's length.
	var written, requested float64
	for _, phase := range [][]sample{warm, fixed} {
		for _, s := range phase {
			written += float64(s.rep.BytesWritten)
			requested += float64(s.rep.RequestBytes)
		}
	}

	var rss int64
	for _, d := range dep.all {
		hwm, err := vmHWM(d.cmd.Process.Pid)
		if err != nil {
			return nil, result{}, err
		}
		rss += hwm
	}

	// Recovery: checkpoint, send a serial tail, kill -9 every cache
	// daemon, restart it on the same state dir and time it back to
	// ready. Every acked mutation must survive. The tail fixes how much
	// WAL each restart replays: on repeat traffic it is one whole
	// shuffle block, so every round replays the same op mix.
	next := cursor
	tailLen := w.tailLen()
	if w.traffic == trafficRepeat {
		next = (cursor + tailLen - 1) / tailLen * tailLen
	}
	var recovery []float64
	for r := 0; r < recoveryRounds; r++ {
		for _, n := range dep.nodes {
			if err := postEmpty(ctl, n.url()+"/v1/checkpoint"); err != nil {
				return nil, result{}, err
			}
		}
		tail := serial(hc, url, st, next, next+tailLen)
		next += tailLen
		count(tail)
		before := make([]nodeState, len(dep.nodes))
		for i, n := range dep.nodes {
			if before[i], err = readState(ctl, n); err != nil {
				return nil, result{}, err
			}
		}
		for _, n := range dep.nodes {
			p.kill(n)
		}
		took, err := launchRestart(p, ctl, dep, w.fleet)
		if err != nil {
			return nil, result{}, err
		}
		recovery = append(recovery, took.Seconds())
		for i, n := range dep.nodes {
			after, err := readState(ctl, n)
			if err != nil {
				return nil, result{}, err
			}
			chk.sameState(n.name, before[i], after)
		}
	}
	rec.RecoveryRuns = recovery

	// Every acked request reached exactly one agent, and the agents'
	// recovered counts still say so.
	if w.fleet {
		var served int64
		for _, n := range dep.nodes {
			var s statsResp
			if err := getJSON(ctl, n.url()+"/v1/stats", &s); err != nil {
				return nil, result{}, err
			}
			served += s.Requests
		}
		if acked := int64(attempted - failed); served != acked {
			chk.fail("agents served %d requests, master acked %d", served, acked)
		}
	}
	p.killAll()

	e2m := rec.EndToEnd
	e2m["latency_p50_ms"] = metric{rec.Latency.P50, "ms"}
	e2m["throughput_rps"] = metric{median(rec.SatWindowsRPS), "rps"}
	e2m["hit_rate"] = metric{ratio(float64(ops["hit"]), float64(okCount)), "fraction"}
	e2m["cache_efficiency"] = metric{mean(effs), "fraction"}
	e2m["container_efficiency"] = metric{mean(contEff), "fraction"}
	e2m["write_amplification"] = metric{ratio(written, requested), "ratio"}
	e2m["setup_s"] = metric{median(rec.SetupRuns), "s"}
	e2m["rss_peak_mb"] = metric{float64(rss) / (1 << 20), "MB"}
	e2m["recovery_s"] = metric{median(recovery), "s"}
	rec.FailRate = ratio(float64(failed), float64(attempted))

	res := result{Attempted: attempted, Failed: failed, Metrics: e2m}
	if o.trace {
		run := daemonRun{
			lagP99MS:    rec.LagP99MS.Value,
			p90MS:       rec.Latency.P90,
			p99MS:       rec.Latency.P99.Value,
			achievedRPS: rec.AchievedRPS,
			lockReadUS:  1e6 * ratio(lw1.readSum-lw0.readSum, lw1.readCount-lw0.readCount),
			lockWriteUS: 1e6 * ratio(lw1.writeSum-lw0.writeSum, lw1.writeCount-lw0.writeCount),
		}
		lr, err := traceRun(o, w, repo, st, filepath.Join(dir, "trace"), run, &chk)
		if err != nil {
			return nil, result{}, err
		}
		rec.Layers = lr
		res.Metrics = lr.Metrics
	}
	rec.Failures = chk.failures
	res.Correct = chk.count == 0
	return rec, res, nil
}

// launchRestart restarts the killed cache daemons on their state dirs
// and returns the time until they, and on a fleet the master, are
// ready again.
func launchRestart(p *procs, hc *http.Client, dep *deployment, fleet bool) (time.Duration, error) {
	start := time.Now()
	if _, err := launch(p, hc, dep.nodes); err != nil {
		return 0, err
	}
	if fleet {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := waitReady(ctx, hc, dep.entry); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// effSampler reads the cache efficiency (unique over total bytes,
// summed over the cache daemons) on a fixed period.
type effSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	effs []float64
	err  error
}

func startEffSampler(hc *http.Client, nodes []*daemon, every time.Duration) *effSampler {
	es := &effSampler{done: make(chan struct{})}
	es.wg.Add(1)
	go func() {
		defer es.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-es.done:
				return
			case <-tick.C:
			}
			var unique, total float64
			for _, n := range nodes {
				var s statsResp
				if err := getJSON(hc, n.url()+"/v1/stats", &s); err != nil {
					es.err = err
					return
				}
				unique += float64(s.UniqueData)
				total += float64(s.TotalData)
			}
			es.effs = append(es.effs, ratio(unique, total))
		}
	}()
	return es
}

func (es *effSampler) stop() ([]float64, error) {
	close(es.done)
	es.wg.Wait()
	if es.err == nil && len(es.effs) == 0 {
		es.err = fmt.Errorf("no cache efficiency samples")
	}
	return es.effs, es.err
}

// timedSlices is how many slices the timed phases alternate through:
// up to maxSlices, while each fixed-rate slice still expects a latency
// window's worth of requests with room for Poisson variation.
func timedSlices(w workload, fixedDur time.Duration) int {
	n := int(w.rate * fixedDur.Seconds() / (1.3 * latencyWindowSamples))
	if n > maxSlices {
		return maxSlices
	}
	if n < 1 {
		return 1
	}
	return n
}

// sliceLag sums up a fixed-rate slice's generator lag and applies the
// late-slice rule to it.
func sliceLag(lag []time.Duration) sliceRecord {
	late, sum := 0, 0.0
	for _, l := range lag {
		sum += ms(l)
		if ms(l) > lateLagMS {
			late++
		}
	}
	n := float64(len(lag))
	sr := sliceRecord{Requests: len(lag), LagMeanMS: ratio(sum, n), LateShare: ratio(float64(late), n)}
	sr.Discarded = sr.LateShare > lateShare
	return sr
}

// latencyMS is a request's latency in ms; a failed request counts as
// missing every latency limit.
func latencyMS(s sample) float64 {
	if checkReply(s) != nil {
		return failedLatencyMS
	}
	return ms(s.lat)
}

func latenciesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = latencyMS(s)
	}
	return out
}

// windowLatency splits one fixed-rate slice into windows holding at
// least latencyWindowSamples requests each and returns each window's
// p50 and p90; the run reports the medians over all windows, so one
// stall moves one window and not the whole run.
func windowLatency(fixed []sample) ([]windowLat, error) {
	windows := len(fixed) / latencyWindowSamples
	if windows < 1 {
		windows = 1
	}
	// Equal-count windows in due-time order.
	sorted := append([]sample(nil), fixed...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].at < sorted[j].at })
	per := make([][]float64, windows)
	for i, s := range sorted {
		k := i * windows / len(sorted)
		per[k] = append(per[k], latencyMS(s))
	}
	var out []windowLat
	for _, xs := range per {
		var wl windowLat
		var err error
		for _, q := range []struct {
			p *pct
			q float64
		}{{&wl.P50, 0.5}, {&wl.P90, 0.9}} {
			if *q.p, err = percentile(xs, q.q); err != nil {
				return nil, err
			}
		}
		out = append(out, wl)
	}
	return out, nil
}

// windowThroughput is the successful requests completed in each whole
// second of the saturation phase.
func windowThroughput(sat []sample, elapsed time.Duration) []float64 {
	n := int(elapsed / time.Second)
	if n < 1 {
		n = 1
	}
	per := make([]float64, n)
	for _, s := range sat {
		if k := int(s.at / time.Second); k < n && s.ok() {
			per[k]++
		}
	}
	return per
}
