package check

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/persist"
	"repro/internal/resilience"
	"repro/internal/server"
)

// RunHAChaos audits the fleet's high-availability layer end to end: a
// real primary + standby master pair (each on its own rebindable
// listener, lease-linked over HTTP) fronting N agents that heartbeat
// both masters through their epoch-gated handlers, with a WAL-streaming
// read replica following the persistent agent. The schedule kills the
// primary and isolates the lease holder at deterministic steps, and the
// run drives every lease tick, heartbeat, and replica pull itself so
// failover timing is exact, not wall-clocked.
//
// The invariants:
//
//   - zero lost acks: every request acknowledged through the fleet is
//     still served afterwards — as a hit on the agent that acked it,
//     and through whichever master holds the lease;
//   - promotion in two: a standby becomes primary after exactly two
//     driven lease ticks of primary silence, never after one;
//   - single primary per epoch: no request round is ever acknowledged
//     by two masters, no agent's epoch gate ever records a same-epoch
//     holder conflict, and no 200 ever arrives stamped with an epoch
//     older than one the client has already seen (the audit that
//     catches the staleepoch mutant);
//   - recovered state byte-identity: a promoted master's inherited
//     mirror equals the dead primary's last durable ha-state.json,
//     byte for byte;
//   - replica byte-identity: the WAL follower's cache state equals the
//     persistent agent's ExportState once the stream is drained;
//   - warm handoff: a drained agent's acked specs are still hits
//     through the fleet, served by the rendezvous successors its drain
//     warmed.
type HAChaosConfig struct {
	Seed  int64
	Steps int
	// Agents is the fleet size (>= 2; agent 0 is the persistent one the
	// replica follows).
	Agents int
	Alpha  float64
	// Kills is how many scheduled primary kill/restart cycles run; a
	// final kill always runs after the drain audit.
	Kills int
	// Isolations is how many lease-isolation partitions run: the
	// standby loses its path to the lease holder, promotes, and the old
	// primary must demote off the agents' epoch rejections.
	Isolations int
	// KillPhase shifts every scheduled event by this many steps — the
	// nightly soak rotates it so the kill schedule varies across runs
	// while each run stays reproducible from its seed + phase.
	KillPhase int
}

// HAChaosDefault is the canonical HA chaos configuration for a seed.
func HAChaosDefault(seed int64) HAChaosConfig {
	return HAChaosConfig{
		Seed: seed, Steps: 200, Agents: 3, Alpha: 0.6,
		Kills: 3, Isolations: 2,
	}
}

// HAChaosReport summarizes one run.
type HAChaosReport struct {
	Steps       int
	Acked       int // rounds with exactly one master acking
	Unavailable int // rounds with no ack (failover being learned)
	Sheds       int
	Errors      int
	Kills       int // primary kills (scheduled + final)
	Isolations  int // lease-holder partitions
	Promotions  int // audited standby promotions
	Demotions   int // audited old-primary demotions
	MaxEpoch    uint64
	// ReplicaRecords is how many WAL records the read replica applied.
	ReplicaRecords uint64
	// StaleRejects sums the agents' epoch-gate rejections — nonzero in
	// any run where a superseded primary tried to keep forwarding.
	StaleRejects uint64
	// HandoffSpecs is how many acked specs the drain audit re-verified.
	HandoffSpecs int
}

// haMasterSlot is one master's moving parts: identity, stable address,
// durable state dir, and the live process (master + http server).
type haMasterSlot struct {
	id       string
	addr     string
	url      string
	stateDir string
	hs       *http.Server
	m        *fleet.Master
	// peerChaos sits on this master's lease path to its peer;
	// isolating the lease holder = blackholing the standby's plan.
	peerChaos *resilience.ChaosTransport
	alive     bool
}

// haEvent is one scheduled fault.
type haEvent struct {
	step int
	kind string // "kill", "isolate", "heal"
}

// RunHAChaos executes the HA chaos schedule and audits the invariants.
// It returns a nil Failure on a clean run; a failure carries the
// persistent agent's span-trace ring for latency context.
func RunHAChaos(cfg HAChaosConfig) (rep HAChaosReport, fail *Failure) {
	if cfg.Agents < 2 {
		return rep, failf(cfg.Seed, 0, "hachaos: Agents must be >= 2")
	}
	repo := SmallRepo(cfg.Seed)
	stream := NewStream(repo, cfg.Seed+1)
	ctx := context.Background()

	scratch, err := os.MkdirTemp("", "hachaos-*")
	if err != nil {
		return rep, failf(cfg.Seed, 0, "hachaos: scratch dir: %v", err)
	}
	defer os.RemoveAll(scratch)

	// ---- agents ----
	// Agent 0 is persistent with replication enabled; the read replica
	// follows its WAL stream. The rest are in-memory. All have
	// unlimited capacity, so an acked spec can never be evicted — any
	// post-fault miss is a real loss.
	type haAgent struct {
		id  string
		srv *server.Server
		ts  *httptest.Server
		ag  *fleet.Agent
	}
	agents := make([]*haAgent, cfg.Agents)
	for i := range agents {
		a := &haAgent{id: fmt.Sprintf("agent-%d", i)}
		if i == 0 {
			store, err := persist.Open(filepath.Join(scratch, "agent-0"), persist.Options{})
			if err != nil {
				return rep, failf(cfg.Seed, 0, "hachaos: opening store: %v", err)
			}
			srv, _, err := server.NewPersistent(repo, core.Config{Alpha: cfg.Alpha}, store, 0)
			if err != nil {
				return rep, failf(cfg.Seed, 0, "hachaos: persistent agent: %v", err)
			}
			if err := srv.EnableReplication(1); err != nil {
				return rep, failf(cfg.Seed, 0, "hachaos: enabling replication: %v", err)
			}
			a.srv = srv
		} else {
			srv, err := server.New(repo, core.Config{Alpha: cfg.Alpha})
			if err != nil {
				return rep, failf(cfg.Seed, 0, "hachaos: agent server: %v", err)
			}
			a.srv = srv
		}
		agents[i] = a
	}
	defer func() {
		if fail != nil && agents[0] != nil && agents[0].srv != nil {
			fail.TraceDump = agents[0].srv.TraceRing().Dump(0)
		}
		for _, a := range agents {
			if a.ts != nil {
				a.ts.Close()
			}
		}
	}()

	// ---- masters ----
	slots := []*haMasterSlot{
		{id: "master-a", stateDir: filepath.Join(scratch, "master-a")},
		{id: "master-b", stateDir: filepath.Join(scratch, "master-b")},
	}
	listeners := make([]net.Listener, 2)
	for i, s := range slots {
		if err := os.MkdirAll(s.stateDir, 0o755); err != nil {
			return rep, failf(cfg.Seed, 0, "hachaos: state dir: %v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return rep, failf(cfg.Seed, 0, "hachaos: listen: %v", err)
		}
		listeners[i] = ln
		s.addr = ln.Addr().String()
		s.url = "http://" + s.addr
		s.peerChaos = resilience.NewChaosTransport(
			&http.Transport{DisableKeepAlives: true},
			resilience.ChaosPlan{Seed: cfg.Seed + 20 + int64(i)})
	}
	boot := func(i int, startPrimary bool, ln net.Listener) {
		s, peer := slots[i], slots[1-i]
		s.m = fleet.NewMaster(fleet.MasterConfig{
			Quorum:         1,
			SuspectAfter:   40 * time.Millisecond,
			DeadAfter:      0,
			ForwardTimeout: 500 * time.Millisecond,
			MaxAttempts:    cfg.Agents,
			Breaker:        resilience.BreakerConfig{Failures: 3, OpenFor: 10 * time.Millisecond},
			HA: fleet.HAConfig{
				ID: s.id, PeerURL: peer.url, StartPrimary: startPrimary,
				StateDir:   s.stateDir,
				HTTPClient: &http.Client{Transport: s.peerChaos},
			},
		})
		s.hs = &http.Server{Handler: s.m.Handler()}
		go s.hs.Serve(ln)
		s.alive = true
	}
	boot(0, true, listeners[0])
	boot(1, false, listeners[1])
	defer func() {
		for _, s := range slots {
			if s.alive {
				s.hs.Close()
			}
		}
	}()

	primarySlot := func() *haMasterSlot {
		var best *haMasterSlot
		for _, s := range slots {
			if !s.alive {
				continue
			}
			st := s.m.HAStatusNow()
			if st.Role == "primary" && (best == nil || st.Epoch > best.m.HAStatusNow().Epoch) {
				best = s
			}
		}
		return best
	}

	// ---- agents join the fleet (both masters) ----
	// The listener must exist before the agent (the advertise URL), and
	// the agent must exist before requests flow (its epoch gate), so the
	// test server dispatches through a late-bound handler.
	masterURLs := []string{slots[0].url, slots[1].url}
	for _, a := range agents {
		a := a
		a.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			a.ag.Handler().ServeHTTP(w, r)
		}))
		a.ag = fleet.NewAgent(fleet.AgentConfig{
			ID:           a.id,
			AdvertiseURL: a.ts.URL,
			MasterURLs:   masterURLs,
			Interval:     time.Hour, // beats are driven by the schedule
			BeatTimeout:  time.Second,
			HTTPClient:   &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		}, a.srv)
	}
	drained := map[string]bool{}
	beatAll := func() {
		for _, a := range agents {
			if drained[a.id] {
				continue
			}
			a.ag.BeatNow(ctx) // a dead master's link fails; the survivor acks
		}
	}
	beatAll()

	// ---- read replica over agent-0's WAL stream ----
	newReplicaMgr := func() (*core.Manager, error) {
		return core.NewManager(repo, core.Config{Alpha: cfg.Alpha})
	}
	replicaMgr, err := newReplicaMgr()
	if err != nil {
		return rep, failf(cfg.Seed, 0, "hachaos: replica manager: %v", err)
	}
	replica := persist.NewFollower(
		func(payload []byte) error {
			var mut core.Mutation
			if err := json.Unmarshal(payload, &mut); err != nil {
				return err
			}
			return replicaMgr.ApplyMutation(mut)
		},
		func(payload []byte) error {
			var ck persist.StreamCheckpoint
			if err := json.Unmarshal(payload, &ck); err != nil {
				return err
			}
			fresh, err := newReplicaMgr()
			if err != nil {
				return err
			}
			if err := fresh.ImportState(ck.State); err != nil {
				return err
			}
			replicaMgr = fresh
			return nil
		})
	replicaHTTP := agents[0].ts.Client()
	pullReplica := func() {
		pctx, cancel := context.WithTimeout(ctx, time.Second)
		defer cancel()
		replica.Pull(pctx, replicaHTTP, agents[0].ts.URL+"/ha/v1") // lag is fine; the next pull catches up
	}
	auditReplica := func(step int) *Failure {
		want := agents[0].srv.Streamer().Next()
		if !Poll(3*time.Second, func() bool {
			pullReplica()
			return replica.Next() >= want
		}) {
			return failf(cfg.Seed, step, "hachaos: replica never drained to %d (at %d)", want, replica.Next())
		}
		got, err := json.Marshal(replicaMgr.ExportState())
		if err != nil {
			return failf(cfg.Seed, step, "hachaos: marshal replica state: %v", err)
		}
		live, err := json.Marshal(agents[0].srv.ExportState())
		if err != nil {
			return failf(cfg.Seed, step, "hachaos: marshal primary state: %v", err)
		}
		if string(got) != string(live) {
			return failf(cfg.Seed, step, "hachaos: replica state diverged from agent-0 after %d records", replica.Applied())
		}
		return nil
	}

	// ---- fleet client: raw HTTP so 200s expose their epoch stamp ----
	fleetHTTP := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	type haAck struct {
		status int
		epoch  uint64
		res    fleet.RouteResponse
		retry  string
	}
	post := func(url string, keys []string) haAck {
		body, _ := json.Marshal(server.RequestBody{Packages: keys, Close: false})
		pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		defer cancel()
		req, _ := http.NewRequestWithContext(pctx, http.MethodPost, url+"/v1/request", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		resp, err := fleetHTTP.Do(req)
		if err != nil {
			return haAck{status: 0}
		}
		defer resp.Body.Close()
		a := haAck{status: resp.StatusCode, retry: resp.Header.Get("Retry-After")}
		a.epoch, _ = strconv.ParseUint(resp.Header.Get(server.EpochHeader), 10, 64)
		if resp.StatusCode == http.StatusOK {
			json.NewDecoder(resp.Body).Decode(&a.res)
		}
		return a
	}

	type ackedReq struct {
		keys  []string
		step  int
		agent string
	}
	acked := make(map[string]ackedReq)
	var maxEpochSeen uint64

	// sendRound offers one spec to every live master and audits the
	// single-primary contract on the acks.
	sendRound := func(step int, keys []string, record bool) *Failure {
		type ackFrom struct {
			slot *haMasterSlot
			ack  haAck
		}
		var oks []ackFrom
		saw429, saw503 := false, false
		for _, s := range slots {
			if !s.alive {
				continue
			}
			a := post(s.url, keys)
			switch {
			case a.status == http.StatusOK:
				oks = append(oks, ackFrom{s, a})
			case a.status == http.StatusTooManyRequests:
				saw429 = true
			case a.status == http.StatusServiceUnavailable:
				saw503 = true
				if a.epoch > 0 && a.retry == "" {
					return failf(cfg.Seed, step, "hachaos: 503 stamped epoch %d without Retry-After", a.epoch)
				}
			}
		}
		if len(oks) > 1 {
			return failf(cfg.Seed, step,
				"hachaos: dual primary: %s served epoch %d and %s served epoch %d in one round",
				oks[0].slot.id, oks[0].ack.epoch, oks[1].slot.id, oks[1].ack.epoch)
		}
		if len(oks) == 1 {
			a := oks[0].ack
			if a.epoch < maxEpochSeen {
				return failf(cfg.Seed, step,
					"hachaos: %s acked at epoch %d after epoch %d was already active",
					oks[0].slot.id, a.epoch, maxEpochSeen)
			}
			if a.epoch > maxEpochSeen {
				maxEpochSeen = a.epoch
			}
			if record {
				rep.Acked++
				acked[strings.Join(keys, ",")] = ackedReq{keys: keys, step: step, agent: a.res.Agent}
			}
		} else if record {
			switch {
			case saw429:
				rep.Sheds++
			case saw503:
				rep.Unavailable++
			default:
				rep.Errors++
			}
		}
		return nil
	}

	// fleetServe absorbs the transient 503s while a failover or suspect
	// transition is still being learned.
	fleetServe := func(keys []string) (fleet.RouteResponse, bool) {
		for i := 0; i < 40; i++ {
			for _, s := range slots {
				if !s.alive {
					continue
				}
				if a := post(s.url, keys); a.status == http.StatusOK {
					return a.res, true
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		return fleet.RouteResponse{}, false
	}

	// auditAcked is the zero-lost-acks contract.
	auditAcked := func(step int) *Failure {
		for _, a := range agents {
			if drained[a.id] {
				continue
			}
			direct := server.NewClient(a.ts.URL, a.ts.Client())
			for key, ar := range acked {
				if ar.agent != a.id {
					continue
				}
				res, err := requestNoShed(direct, ar.keys)
				if err != nil {
					return failf(cfg.Seed, step, "hachaos: acked spec from step %d unservable on %s: %v", ar.step, a.id, err)
				}
				if res.Op != "hit" {
					return failf(cfg.Seed, step, "hachaos: acked spec from step %d lost on %s: op %q (spec %s)", ar.step, a.id, res.Op, key)
				}
			}
		}
		for _, ar := range acked {
			if _, ok := fleetServe(ar.keys); !ok {
				return failf(cfg.Seed, step, "hachaos: acked spec from step %d unservable through the fleet", ar.step)
			}
		}
		return nil
	}

	// promoteStandby drives the standby through exactly two lease ticks
	// of primary silence and asserts the lease state machine: suspicion
	// after one, promotion after two, recovered state byte-identical to
	// the dead/isolated primary's last durable ha-state.json.
	promoteStandby := func(step int, standby *haMasterSlot, primaryStateDir string, wantEpoch uint64) *Failure {
		tctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
		st := standby.m.LeaseTick(tctx)
		cancel()
		if st.Role != "standby" {
			return failf(cfg.Seed, step, "hachaos: standby %s promoted after ONE missed lease tick", standby.id)
		}
		tctx, cancel = context.WithTimeout(ctx, 300*time.Millisecond)
		st = standby.m.LeaseTick(tctx)
		cancel()
		if st.Role != "primary" || st.Epoch != wantEpoch {
			return failf(cfg.Seed, step,
				"hachaos: standby %s not primary at epoch %d after two missed ticks (role %s epoch %d)",
				standby.id, wantEpoch, st.Role, st.Epoch)
		}
		rep.Promotions++
		durable, err := fleet.ReadHAState(filepath.Join(primaryStateDir, "ha-state.json"))
		if err != nil {
			return failf(cfg.Seed, step, "hachaos: reading dead primary's ha-state.json: %v", err)
		}
		if !fleet.HAStateEqual(st.RecoveredState, durable) {
			return failf(cfg.Seed, step,
				"hachaos: promoted %s recovered state differs from dead primary's durable state:\n recovered %s\n durable   %s",
				standby.id, st.RecoveredState, durable)
		}
		return nil
	}

	// drainLease verifies replication is drained: one granted tick, then
	// mirror watermark == primary log watermark.
	drainLease := func(step int, standby, primary *haMasterSlot) *Failure {
		tctx, cancel := context.WithTimeout(ctx, time.Second)
		st := standby.m.LeaseTick(tctx)
		cancel()
		pst := primary.m.HAStatusNow()
		if st.Role != "standby" || st.MirrorNext != pst.StreamNext {
			return failf(cfg.Seed, step,
				"hachaos: standby %s not drained before kill: mirror %d, primary log %d", standby.id, st.MirrorNext, pst.StreamNext)
		}
		return nil
	}

	killPrimary := func(step int) *Failure {
		p := primarySlot()
		if p == nil {
			return failf(cfg.Seed, step, "hachaos: no primary to kill")
		}
		s := slots[0]
		if s == p {
			s = slots[1]
		}
		if f := drainLease(step, s, p); f != nil {
			return f
		}
		epoch := p.m.HAStatusNow().Epoch
		p.hs.Close()
		p.alive = false
		rep.Kills++
		if f := promoteStandby(step, s, p.stateDir, epoch+1); f != nil {
			return f
		}
		// Restart the dead master as a standby of the new primary: same
		// identity and state dir, fresh soft state.
		var nl net.Listener
		if !Poll(2*time.Second, func() bool {
			var err error
			nl, err = net.Listen("tcp", p.addr)
			return err == nil
		}) {
			return failf(cfg.Seed, step, "hachaos: could not rebind master address %s", p.addr)
		}
		idx := 0
		if slots[1] == p {
			idx = 1
		}
		boot(idx, false, nl)
		if !Poll(2*time.Second, func() bool {
			beatAll()
			pctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
			defer cancel()
			req, _ := http.NewRequestWithContext(pctx, http.MethodGet, p.url+"/v1/readyz", nil)
			resp, err := fleetHTTP.Do(req)
			if err != nil {
				return false
			}
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		}) {
			return failf(cfg.Seed, step, "hachaos: restarted master %s never became ready", p.id)
		}
		if f := auditAcked(step); f != nil {
			return f
		}
		return auditReplica(step)
	}

	isolated := (*haMasterSlot)(nil) // old primary awaiting demotion audit
	isolate := func(step int) *Failure {
		p := primarySlot()
		if p == nil {
			return failf(cfg.Seed, step, "hachaos: no primary to isolate")
		}
		s := slots[0]
		if s == p {
			s = slots[1]
		}
		if f := drainLease(step, s, p); f != nil {
			return f
		}
		epoch := p.m.HAStatusNow().Epoch
		// Sever the standby's lease path to the holder. The holder still
		// reaches the agents — the case where only agent-side epoch
		// fencing keeps the old primary from mutating the fleet.
		s.peerChaos.SetPlan(resilience.ChaosPlan{BlackholeP: 1})
		rep.Isolations++
		if f := promoteStandby(step, s, p.stateDir, epoch+1); f != nil {
			return f
		}
		isolated = p
		return nil
	}
	heal := func(step int) *Failure {
		for _, s := range slots {
			s.peerChaos.SetPlan(resilience.ChaosPlan{})
		}
		if isolated == nil {
			return nil
		}
		// By now the old primary has tried to forward at least once,
		// been refused by an epoch-gated agent, and demoted itself.
		st := isolated.m.HAStatusNow()
		if st.Role != "standby" || st.Demotions == 0 {
			return failf(cfg.Seed, step,
				"hachaos: isolated primary %s never demoted off the agents' epoch rejections (role %s, %d demotions)",
				isolated.id, st.Role, st.Demotions)
		}
		rep.Demotions++
		isolated = nil
		return nil
	}

	// ---- deterministic fault schedule ----
	// Kills and isolations alternate across evenly spaced slots;
	// KillPhase shifts the whole schedule (the nightly soak's rotation).
	var events []haEvent
	total := cfg.Kills + cfg.Isolations
	isoLeft := cfg.Isolations
	isoLen := 6
	for k := 0; k < total; k++ {
		step := cfg.Steps * (k + 1) / (total + 1)
		if cfg.Steps > 0 {
			step = (step + cfg.KillPhase) % cfg.Steps
		}
		if step < 5 {
			step = 5
		}
		if step > cfg.Steps-10 {
			step = cfg.Steps - 10
		}
		if k%2 == 0 && isoLeft > 0 {
			isoLeft--
			events = append(events, haEvent{step, "isolate"}, haEvent{step + isoLen, "heal"})
		} else {
			events = append(events, haEvent{step, "kill"})
		}
	}
	eventsAt := map[int][]string{}
	for _, e := range events {
		eventsAt[e.step] = append(eventsAt[e.step], e.kind)
	}

	// ---- main loop ----
	for step := 0; step < cfg.Steps; step++ {
		for _, kind := range eventsAt[step] {
			var f *Failure
			switch kind {
			case "kill":
				f = killPrimary(step)
			case "isolate":
				f = isolate(step)
			case "heal":
				f = heal(step)
			}
			if f != nil {
				return rep, f
			}
		}
		for _, s := range slots {
			if s.alive {
				tctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
				s.m.LeaseTick(tctx)
				cancel()
			}
		}
		beatAll()
		if step%5 == 0 {
			pullReplica()
		}
		keys := keysOf(repo, stream.Next())
		rep.Steps++
		if f := sendRound(step, keys, true); f != nil {
			return rep, f
		}
	}

	// ---- warm handoff audit ----
	// Drain agent 1 (an in-memory agent holding real acked state): its
	// rendezvous successors are warmed, and every spec it acked must
	// still be a hit through the fleet.
	if f := heal(cfg.Steps); f != nil {
		return rep, f
	}
	drainTarget := agents[1]
	var drainSpecs []ackedReq
	for _, ar := range acked {
		if ar.agent == drainTarget.id {
			drainSpecs = append(drainSpecs, ar)
		}
	}
	if err := drainTarget.ag.Drain(ctx); err != nil {
		return rep, failf(cfg.Seed, cfg.Steps, "hachaos: drain: %v", err)
	}
	drained[drainTarget.id] = true
	// The successors must gossip their warmed images before the audit:
	// affinity routing can only steer a drained spec to its new holder
	// once the master's directory mirror has seen it.
	beatAll()
	for _, ar := range drainSpecs {
		res, ok := fleetServe(ar.keys)
		if !ok {
			return rep, failf(cfg.Seed, cfg.Steps, "hachaos: drained spec from step %d unservable through the fleet", ar.step)
		}
		if res.Op != "hit" {
			return rep, failf(cfg.Seed, cfg.Steps,
				"hachaos: handoff lost warm spec from step %d: op %q on %s", ar.step, res.Op, res.Agent)
		}
		if res.Agent == drainTarget.id {
			return rep, failf(cfg.Seed, cfg.Steps, "hachaos: drained agent %s still serving", drainTarget.id)
		}
	}
	rep.HandoffSpecs = len(drainSpecs)

	// ---- final kill: the run always ends with a full recovery audit ----
	if f := killPrimary(cfg.Steps); f != nil {
		return rep, f
	}

	// ---- closing audits ----
	finalEpoch := primarySlot().m.HAStatusNow().Epoch
	rep.MaxEpoch = finalEpoch
	for _, a := range agents {
		st := a.ag.Gate().Snapshot()
		rep.StaleRejects += st.StaleRejects
		if st.Conflicts != 0 {
			return rep, failf(cfg.Seed, cfg.Steps,
				"hachaos: agent %s observed %d same-epoch holder conflicts", a.id, st.Conflicts)
		}
		if drained[a.id] {
			continue
		}
		if st.Epoch != finalEpoch {
			return rep, failf(cfg.Seed, cfg.Steps,
				"hachaos: agent %s gate at epoch %d, fleet at %d", a.id, st.Epoch, finalEpoch)
		}
	}
	rep.ReplicaRecords = replica.Applied()
	if rep.Acked == 0 {
		return rep, failf(cfg.Seed, cfg.Steps, "hachaos: no request was ever acknowledged")
	}
	return rep, nil
}
