// Command landlordd runs LANDLORD as a site-wide HTTP service — the
// batch-system-plugin deployment of Section V. Submitters POST job
// specifications to /v1/request and receive the image to run in;
// /v1/stats, /v1/images, /v1/prune, /v1/snapshot, /v1/events and
// /metrics expose operations.
//
//	landlordd -config site.json &
//	landlordd -addr :8080 -alpha 0.8 -capacity-gb 2048 &
//	curl -s localhost:8080/v1/stats
//	curl -s -X POST localhost:8080/v1/request \
//	     -d '{"packages":["app-0001/1.6.0/x86_64-centos7-gcc8-opt"],"close":true}'
//
// Flags override the config file. With -config, the site's prune
// schedule (prune_every_requests expressed as a time interval here) is
// run by a background maintenance loop. -pprof additionally mounts the
// runtime profiler under /debug/pprof/. The daemon drains in-flight
// requests on SIGINT/SIGTERM and logs a final cache snapshot before
// exiting.
//
// With -state-dir (or state_dir in the config), cache state is durable
// (internal/persist): every mutation is write-ahead logged, the state
// is checkpointed on shutdown and on POST /v1/checkpoint, and startup
// recovers the previous state — serving 503 until recovery completes —
// so a crashed or restarted daemon does not re-pay the image build I/O
// its cache already absorbed.
//
// Overload and failure protection (internal/resilience) is config
// driven: shed_rate/shed_burst/shed_queue_depth arm token-bucket +
// queue-depth admission control (429 + Retry-After before the cache
// lock is touched), and degraded_probe_interval_ms schedules the
// self-heal probe that brings a daemon whose WAL has gone sticky back
// from read-only degraded mode. /v1/healthz is pure liveness (always
// 200); /v1/readyz reports readiness and 503s while degraded or
// recovering.
//
// -mode selects the fleet deployment role (internal/fleet):
// "standalone" (default) serves the local cache directly; "master"
// runs only the routing control plane, forwarding /v1/request to
// registered agents by consistent-hashed spec signature; "agent"
// serves the local cache and registers with -master-url, advertising
// -advertise and heartbeating its image directory:
//
//	landlordd -mode master -addr :8080 -quorum 2 &
//	landlordd -mode agent -addr :8081 -master-url http://localhost:8080 \
//	          -advertise http://localhost:8081 &
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/fleet"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// maintenanceInterval converts a request-count prune schedule into a
// wall-clock one: one pass per minute per thousand scheduled requests,
// clamped to [1 minute, 1 hour] so misconfigured sites neither spin
// nor starve.
func maintenanceInterval(pruneEveryRequests int) time.Duration {
	d := time.Duration(pruneEveryRequests) * time.Minute / 1000
	if d < time.Minute {
		return time.Minute
	}
	if d > time.Hour {
		return time.Hour
	}
	return d
}

// statsLogLine renders the periodic (and final) cache-utilization
// self-log entry.
func statsLogLine(st server.StatsResponse) string {
	return fmt.Sprintf("requests=%d hits=%d merges=%d inserts=%d deletes=%d splits=%d images=%d cached=%s unique=%s written=%s cache_eff=%.3f container_eff=%.3f",
		st.Requests, st.Hits, st.Merges, st.Inserts, st.Deletes, st.Splits,
		st.Images, stats.FormatBytes(st.TotalData), stats.FormatBytes(st.UniqueData),
		stats.FormatBytes(st.BytesWritten), st.CacheEfficiency, st.ContainerEfficiency)
}

// mountPprof attaches the runtime profiler's handlers to mux. They are
// mounted explicitly (not via the net/http/pprof side-effect import)
// so the service mux — not http.DefaultServeMux — serves them, and
// only when -pprof is set.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func main() {
	var (
		configPath  = flag.String("config", "", "site configuration file (JSON; flags override)")
		addr        = flag.String("addr", "", "listen address (overrides config)")
		alpha       = flag.Float64("alpha", -1, "merge threshold (overrides config)")
		capacityGB  = flag.Float64("capacity-gb", -1, "cache capacity in GB, 0 = unlimited (overrides config)")
		repoSeed    = flag.Int64("repo-seed", 0, "seed for the synthetic repository (overrides config)")
		repoFile    = flag.String("repo-file", "", "load the repository from this JSONL file (overrides config)")
		stateDir    = flag.String("state-dir", "", "durable state directory: WAL + checkpoints (overrides config)")
		pprofOn     = flag.Bool("pprof", false, "serve runtime profiles under /debug/pprof/")
		statsEvery  = flag.Duration("stats-interval", 5*time.Minute, "cache-utilization self-log interval (0 disables)")
		drainWindow = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
		mode        = flag.String("mode", "", "deployment mode: standalone, master, or agent (overrides config)")
		masterURL   = flag.String("master-url", "", "master base URL for agent mode (overrides config)")
		masterURLs  = flag.String("master-urls", "", "comma-separated master base URLs for an HA fleet, agent mode (overrides config)")
		advertise   = flag.String("advertise", "", "URL the master reaches this agent at, agent mode (overrides config)")
		agentID     = flag.String("agent-id", "", "fleet name for this agent, agent mode (overrides config)")
		quorum      = flag.Int("quorum", -1, "agents required before the master reports ready (overrides config)")
		heartbeatMS = flag.Int("heartbeat-ms", 0, "agent heartbeat cadence in ms (overrides config)")
		masterID    = flag.String("master-id", "", "lease identity enabling master high availability (overrides config)")
		standbyOf   = flag.String("standby-of", "", "primary base URL this master is a warm standby of (overrides config)")
		peerURL     = flag.String("peer-url", "", "standby base URL this primary renews its lease with (overrides config)")
		leaseMS     = flag.Int("lease-ms", 0, "lease renewal cadence in ms for HA masters (overrides config)")
	)
	flag.Parse()

	site := config.Default()
	if *configPath != "" {
		loaded, err := config.Load(*configPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "landlordd: %v\n", err)
			os.Exit(1)
		}
		site = loaded
	}
	if *addr != "" {
		site.Addr = *addr
	}
	if *alpha >= 0 {
		site.Alpha = alpha
	}
	if *capacityGB >= 0 {
		site.CapacityGB = *capacityGB
	}
	if *repoSeed != 0 {
		site.RepoSeed = *repoSeed
	}
	if *repoFile != "" {
		site.RepoFile = *repoFile
	}
	if *stateDir != "" {
		site.StateDir = *stateDir
	}
	if *mode != "" {
		site.Mode = *mode
	}
	if *masterURL != "" {
		site.MasterURL = *masterURL
	}
	if *masterURLs != "" {
		site.MasterURLs = strings.Split(*masterURLs, ",")
	}
	if *masterID != "" {
		site.MasterID = *masterID
	}
	if *standbyOf != "" {
		site.StandbyOf = *standbyOf
	}
	if *peerURL != "" {
		site.PeerURL = *peerURL
	}
	if *leaseMS > 0 {
		site.LeaseIntervalMS = *leaseMS
	}
	if *advertise != "" {
		site.Advertise = *advertise
	}
	if *agentID != "" {
		site.AgentID = *agentID
	}
	if *quorum >= 0 {
		site.FleetQuorum = *quorum
	}
	if *heartbeatMS > 0 {
		site.HeartbeatIntervalMS = *heartbeatMS
	}
	if err := site.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "landlordd: %v\n", err)
		os.Exit(1)
	}

	// Master mode is a different daemon entirely: no repository, no
	// cache, no persistence — just the routing control plane.
	if site.FleetMode() == config.ModeMaster {
		runMaster(site, *drainWindow, *pprofOn)
		return
	}

	repo, err := site.OpenRepo()
	if err != nil {
		fmt.Fprintf(os.Stderr, "landlordd: %v\n", err)
		os.Exit(1)
	}

	// Bind and serve 503s immediately; the handler swaps to the real
	// mux once recovery (below) finishes, so restarting daemons are
	// "come back later" instead of connection-refused.
	var handler atomic.Pointer[http.Handler]
	recovering := server.RecoveringHandler()
	handler.Store(&recovering)
	httpSrv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handler.Load()).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", site.Addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "landlordd: %v\n", err)
		os.Exit(1)
	}
	log.Printf("landlordd: listening on %s", ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	var srv *server.Server
	var store *persist.Store
	if site.StateDir != "" {
		store, err = persist.Open(site.StateDir, site.PersistOptions())
		if err != nil {
			fmt.Fprintf(os.Stderr, "landlordd: %v\n", err)
			os.Exit(1)
		}
		s, rep, err := server.NewPersistent(repo, site.CoreConfig(repo), store, site.CheckpointEveryRequests)
		if err != nil {
			fmt.Fprintf(os.Stderr, "landlordd: %v\n", err)
			os.Exit(1)
		}
		for _, warn := range rep.Warnings {
			log.Printf("landlordd: recovery warning: %s", warn)
		}
		log.Printf("landlordd: recovered state from %s: %s", site.StateDir, rep)
		srv = s
	} else {
		srv, err = server.New(repo, site.CoreConfig(repo))
		if err != nil {
			fmt.Fprintf(os.Stderr, "landlordd: %v\n", err)
			os.Exit(1)
		}
	}

	if site.MaxInflight > 0 {
		srv.SetMaxInflight(site.MaxInflight)
		log.Printf("landlordd: bounding concurrent cache requests at %d (max_inflight)", site.MaxInflight)
	}
	if site.ShedderEnabled() {
		srv.SetAdmission(site.ShedderConfig())
		log.Printf("landlordd: admission control on (shed_rate=%g shed_burst=%d shed_queue_depth=%d)",
			site.ShedRate, site.ShedBurst, site.ShedQueueDepth)
	}
	stopProbe := func() {}
	if store != nil && site.DegradedProbeInterval() > 0 {
		stopProbe = srv.StartDegradedProbe(site.DegradedProbeInterval())
		log.Printf("landlordd: degraded-mode heal probe every %v", site.DegradedProbeInterval())
	}

	// Agent mode: the cache daemon above is unchanged; the fleet agent
	// rides alongside, registering with every master once the handler
	// is live and heartbeating the image directory from then on. The
	// agent's handler wraps the server's with the epoch gate, so
	// forwards from a superseded master are refused instead of applied.
	var fleetAgent *fleet.Agent
	if site.FleetMode() == config.ModeAgent {
		fleetAgent = newFleetAgent(site, srv)
	}

	mux := http.NewServeMux()
	if fleetAgent != nil {
		mux.Handle("/", fleetAgent.Handler())
	} else {
		mux.Handle("/", srv.Handler())
	}
	if *pprofOn {
		mountPprof(mux)
	}
	var live http.Handler = mux
	handler.Store(&live)

	stopFleet := func() {}
	if fleetAgent != nil {
		stopFleet = startFleetAgent(site, fleetAgent)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Runtime metrics (goroutines, heap, GC pauses, uptime) are polled
	// on the maintenance cadence rather than at scrape time, so a slow
	// collector can never stall /metrics. The poller always runs; the
	// prune-driven maintenance pass below stays config-gated.
	runtimeMetrics := telemetry.NewRuntimeCollector(srv.Registry())
	go func() {
		interval := maintenanceInterval(site.PruneEveryRequests)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				runtimeMetrics.Poll()
			}
		}
	}()

	if site.PruneEveryRequests > 0 {
		interval := maintenanceInterval(site.PruneEveryRequests)
		log.Printf("landlordd: maintenance pass every %v (prune_every_requests=%d)",
			interval, site.PruneEveryRequests)
		go func() {
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					splits := srv.PruneNow(site.PruneUtilization, site.PruneMinServed)
					if splits > 0 {
						log.Printf("landlordd: maintenance pass split %d image(s)", splits)
					}
				}
			}
		}()
	}

	if *statsEvery > 0 {
		go func() {
			ticker := time.NewTicker(*statsEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					log.Printf("landlordd: cache %s", statsLogLine(srv.StatsNow()))
				}
			}
		}()
	}

	log.Printf("landlordd: serving %d-package repository (%s) on %s (alpha=%.2f, pprof=%v)",
		repo.Len(), stats.FormatBytes(repo.TotalSize()), ln.Addr(), *site.Alpha, *pprofOn)

	select {
	case err := <-serveErr:
		log.Fatalf("landlordd: %v", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		log.Printf("landlordd: shutdown signal received, draining (up to %v)", *drainWindow)
		// Leave the fleet first, warm: the handoff plan pushes this
		// agent's resident specs to its rendezvous successors, then
		// deregistration moves the keyspace to the survivors — all
		// before the listener closes, so no master forwards into a
		// draining daemon and the departing cache's heat survives it.
		if fleetAgent != nil {
			drainFleetAgent(fleetAgent, *drainWindow)
		}
		stopFleet()
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainWindow)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			log.Printf("landlordd: drain incomplete: %v", err)
		}
		stopProbe()
		if store != nil {
			// Seal the durable state: checkpoint the drained cache, so
			// the next start recovers instantly from a compact log.
			if info, err := srv.CheckpointNow(); err != nil {
				log.Printf("landlordd: final checkpoint failed (WAL remains authoritative): %v", err)
			} else {
				log.Printf("landlordd: checkpointed %d image(s) as seq %d (%s)",
					info.Images, info.Seq, stats.FormatBytes(info.Bytes))
			}
			if err := store.Close(); err != nil {
				log.Printf("landlordd: closing state store: %v", err)
			}
		}
		log.Printf("landlordd: final %s", statsLogLine(srv.StatsNow()))
	}
}
