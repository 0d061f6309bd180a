// Package fabric is the distributed experiment fabric: a coordinator
// that runs jobs on a fleet of isampd workers. It is a service.Executor
// behind the very front door a single daemon serves (service.Server:
// job table, IDs, every HTTP handler, ledger, drain), so clients scale
// from one node to a cluster without changing a line and the fabric
// itself keeps only placement (DESIGN.md §15).
//
// The fabric rests on the observation that measurement cells are pure
// and build-ID-keyed (DESIGN.md §6): a cell key is a content address,
// so results can be deduplicated cluster-wide (single-flight), sharded
// by rendezvous hash, stolen by idle workers, and shared through a
// network content-addressed store (the CAS endpoints every worker and
// the coordinator serve) — any node's warm cache benefits the whole
// fleet. Backpressure propagates: worker 429/Retry-After and queue
// depths roll up into the coordinator's own bounded queue and
// front-door 429s, and a worker lost mid-job has its cell requeued
// elsewhere (at most once per worker; failures are never memoized).
// The fleet topology (worker list, weights, steal threshold) reloads
// hot on SIGHUP.
package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"instrsample/internal/experiment"
	"instrsample/internal/obs"
	"instrsample/internal/service"
	"instrsample/internal/telemetry"
)

// Fleet metric names, alongside the service-compatible jobs.* and
// queue.depth names the coordinator shares with a single daemon.
const (
	MetricCASLocalHit  = "fleet.cas.local_hit"          // counter: jobs answered from the coordinator's CAS replica
	MetricCASRemoteHit = "fleet.cas.remote_hit"         // counter: jobs answered from a peer's CAS
	MetricCASMiss      = "fleet.cas.miss"               // counter: CAS probes that found nothing
	MetricCASRejected  = "fleet.cas.integrity_rejected" // counter: CAS payloads refused (address mismatch)
	MetricSteals       = "fleet.steals"                 // counter: cells claimed from a loaded peer
	MetricRequeues     = "fleet.requeues"               // counter: cells requeued after a worker loss
	MetricMemoPiggy    = "fleet.singleflight.piggyback" // counter: duplicate submissions attached to an in-flight cell
	MetricWorkerLost   = "fleet.worker.lost"            // counter: workers marked down
)

// WorkerConf names one isampd worker in the fleet config.
type WorkerConf struct {
	// Name is the worker's stable identity (metric names, ledger causes).
	Name string `json:"name"`
	// URL is the worker's base URL (e.g. http://127.0.0.1:8347).
	URL string `json:"url"`
	// Weight biases rendezvous sharding toward bigger workers (default 1).
	Weight float64 `json:"weight,omitempty"`
}

// FleetConf is the hot-reloadable part of the coordinator's
// configuration: the worker set and the steal threshold. cmd/isampfleet
// re-reads it from disk on SIGHUP and applies it with Reload.
type FleetConf struct {
	Workers []WorkerConf `json:"workers"`
	// StealThreshold is the queue length above which an idle worker may
	// claim a peer's queued cells (default 2).
	StealThreshold int `json:"steal_threshold,omitempty"`
}

// Config configures a Coordinator. The embedded service.Config is the
// front door's (QueueDepth, RetainJobs, Registry, Obs, MaxBodyBytes,
// Logf, Logger, TraceDir, Now); its Workers and Cache belong to the
// local pool and are ignored here.
type Config struct {
	service.Config
	// Fleet is the initial topology (also reloadable via Reload).
	Fleet FleetConf
	// Slots is the number of concurrent dispatches per worker (default 2).
	Slots int
	// CacheDir, when non-empty, roots the coordinator's own CAS replica:
	// results fetched from workers are stored here and served back to the
	// fleet (and to clients, instantly, on resubmission).
	CacheDir string
	// CacheMaxBytes bounds the CAS replica with LRU eviction (0 = unbounded).
	CacheMaxBytes int64
	// FleetID overrides the content-addressing build ID. Empty means
	// learn it from the first worker /healthz handshake — the workers'
	// binary, not the coordinator's, defines the address space.
	FleetID string
	// HealthInterval is the per-worker health-probe cadence (default 500ms).
	HealthInterval time.Duration
	// Client is the HTTP client for worker traffic (default: dedicated
	// client with connection pooling).
	Client *http.Client
}

// worker is the coordinator's view of one fleet member.
type worker struct {
	name   string
	url    string
	weight float64

	queue    []*flight // cells assigned here, FIFO
	inflight int       // cells dispatched and not yet resolved
	up       bool      // health probe OK and build-compatible
	depth    int       // worker-reported queue depth, for steal/metrics
	draining bool      // removed by reload: finish inflight, take no new work
	gone     bool      // fully removed
	stop     chan struct{}
}

// Coordinator is isampfleet's Executor behind the shared service front
// door (the embedded Server: Handler, Shutdown, Registry). Create with
// New, serve Handler, stop with Shutdown.
type Coordinator struct {
	*service.Server
	cfg    Config
	reg    *telemetry.Registry
	now    func() time.Time
	client *http.Client
	logf   func(string, ...any)

	drain service.DrainEstimator

	mu             sync.Mutex
	cond           *sync.Cond
	stealThreshold int
	workers        map[string]*worker
	flights        map[string]*flight // live cells by cell key
	pending        int                // queued (undispatched) flights
	closed         bool
	fleetID        string
	cas            *experiment.Cache

	wg sync.WaitGroup // dispatchers + health probes
}

// New builds a Coordinator and starts its dispatchers and health probes.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Slots < 1 {
		cfg.Slots = 2
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 256
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 500 * time.Millisecond
	}
	if cfg.Fleet.StealThreshold < 1 {
		cfg.Fleet.StealThreshold = 2
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewState(obs.Options{Mode: obs.ModeSpans})
	}
	cfg.Config = cfg.Config.WithDefaults()
	client := cfg.Client
	if client == nil {
		// A dedicated transport, not http.DefaultTransport: worker
		// connections must not pool with unrelated traffic, and a short
		// idle timeout lets a drained coordinator quiesce to its
		// pre-load goroutine count (the soak harness's leak gate
		// measures exactly that).
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     5 * time.Second,
		}}
	}
	if len(cfg.Fleet.Workers) == 0 {
		return nil, fmt.Errorf("fabric: no workers configured")
	}
	c := &Coordinator{
		cfg:            cfg,
		reg:            cfg.Registry,
		now:            cfg.Now,
		client:         client,
		stealThreshold: cfg.Fleet.StealThreshold,
		workers:        make(map[string]*worker),
		flights:        make(map[string]*flight),
	}
	c.logf = func(format string, args ...any) {
		if cfg.Logf != nil {
			cfg.Logf(format, args...)
		}
	}
	c.cond = sync.NewCond(&c.mu)
	if cfg.FleetID != "" {
		if err := c.setFleetID(cfg.FleetID); err != nil {
			return nil, err
		}
	}
	c.Server = service.NewWithExecutor(cfg.Config, c)
	c.mu.Lock()
	for _, wc := range cfg.Fleet.Workers {
		c.addWorkerLocked(wc)
	}
	c.mu.Unlock()
	return c, nil
}

// setFleetID fixes the fleet's content-addressing ID and, when a cache
// dir is configured, opens the coordinator's CAS replica under it.
// Caller must not hold c.mu when called from New; the health path calls
// it under c.mu via setFleetIDLocked.
func (c *Coordinator) setFleetID(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.setFleetIDLocked(id)
}

func (c *Coordinator) setFleetIDLocked(id string) error {
	if c.fleetID != "" {
		return nil
	}
	c.fleetID = id
	if c.cfg.CacheDir != "" {
		cas, err := experiment.OpenCacheID(c.cfg.CacheDir, id)
		if err == nil && c.cfg.CacheMaxBytes > 0 {
			err = cas.SetMaxBytes(c.cfg.CacheMaxBytes)
		}
		if err != nil {
			return fmt.Errorf("fabric: cas replica: %w", err)
		}
		c.cas = cas
	}
	return nil
}

// metricSafe maps a worker name into the metric-name alphabet.
func metricSafe(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, name)
}

// workerMetric names a per-worker gauge/counter.
func workerMetric(name, field string) string {
	return "fleet.worker." + metricSafe(name) + "." + field
}

// addWorkerLocked registers a worker and starts its health probe and
// dispatcher slots. Caller holds c.mu.
func (c *Coordinator) addWorkerLocked(wc WorkerConf) {
	if _, dup := c.workers[wc.Name]; dup || wc.Name == "" || wc.URL == "" {
		c.logf("fleet: ignoring invalid or duplicate worker %q", wc.Name)
		return
	}
	w := &worker{
		name:   wc.Name,
		url:    strings.TrimRight(wc.URL, "/"),
		weight: wc.Weight,
		stop:   make(chan struct{}),
	}
	if w.weight <= 0 {
		w.weight = 1
	}
	c.workers[wc.Name] = w
	c.reg.Gauge(workerMetric(w.name, "up")).Set(0)
	c.wg.Add(1 + c.cfg.Slots)
	go c.healthLoop(w)
	for i := 0; i < c.cfg.Slots; i++ {
		go c.dispatchLoop(w)
	}
	c.logf("fleet: worker %s added (%s, weight %g)", w.name, w.url, w.weight)
}

// removeWorkerLocked finalizes a drained worker: its dispatchers and
// health probe stop, and it leaves the topology. Caller holds c.mu and
// guarantees the worker has no queued or inflight cells.
func (c *Coordinator) removeWorkerLocked(w *worker) {
	w.gone = true
	close(w.stop)
	delete(c.workers, w.name)
	c.reg.Gauge(workerMetric(w.name, "up")).Set(0)
	c.cond.Broadcast()
	c.logf("fleet: worker %s removed", w.name)
}

// Reload applies a new fleet topology: added workers start immediately;
// removed workers drain — they take no new cells, their queued cells
// are reassigned, and they leave once their inflight cells resolve.
// This is the SIGHUP path (DESIGN.md §15); it never drops a job.
func (c *Coordinator) Reload(fc FleetConf) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fc.StealThreshold > 0 {
		c.stealThreshold = fc.StealThreshold
	}
	keep := make(map[string]bool, len(fc.Workers))
	for _, wc := range fc.Workers {
		keep[wc.Name] = true
		if w, ok := c.workers[wc.Name]; ok {
			if wc.Weight > 0 {
				w.weight = wc.Weight
			}
			w.draining = false
		} else {
			c.addWorkerLocked(wc)
		}
	}
	for name, w := range c.workers {
		if keep[name] || w.draining {
			continue
		}
		w.draining = true
		c.logf("fleet: worker %s draining (removed from config)", name)
		c.reassignQueueLocked(w, "reload")
		if w.inflight == 0 && len(w.queue) == 0 {
			c.removeWorkerLocked(w)
		}
	}
	c.cond.Broadcast()
}

// healthLoop probes one worker's /healthz on a cadence, maintaining its
// up/depth/build state. The first healthy answer can also fix the
// fleet's content-addressing ID.
func (c *Coordinator) healthLoop(w *worker) {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		c.probe(w)
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
	}
}

// workerHealth is the subset of a worker /healthz document the
// coordinator consumes.
type workerHealth struct {
	Status  string `json:"status"`
	Queued  int    `json:"queued"`
	BuildID string `json:"build_id"`
}

// probe runs one health check against w.
func (c *Coordinator) probe(w *worker) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		c.setWorkerUp(w, false, 0, "")
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.setWorkerUp(w, false, 0, "")
		return
	}
	var h workerHealth
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		c.setWorkerUp(w, false, 0, "")
		return
	}
	c.setWorkerUp(w, h.Status == "ok", h.Queued, h.BuildID)
}

// setWorkerUp applies one probe outcome, marking the worker down (and
// reassigning its queue) or up (waking dispatchers).
func (c *Coordinator) setWorkerUp(w *worker, up bool, depth int, buildID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.depth = depth
	if buildID != "" {
		if c.fleetID == "" {
			if err := c.setFleetIDLocked(buildID); err != nil {
				c.logf("fleet: %v", err)
			}
		}
		if up && buildID != c.fleetID {
			// A mismatched build addresses a different result space; its
			// answers would poison the CAS. Keep it out of rotation.
			c.logf("fleet: worker %s build mismatch (%.12s != %.12s)", w.name, buildID, c.fleetID)
			up = false
		}
	}
	was := w.up
	w.up = up
	var g int64
	if up {
		g = 1
	}
	c.reg.Gauge(workerMetric(w.name, "up")).Set(g)
	c.reg.Gauge(workerMetric(w.name, "reported_depth")).Set(int64(depth))
	if was && !up {
		c.reg.Counter(MetricWorkerLost).Inc()
		c.logf("fleet: worker %s down", w.name)
		c.reassignQueueLocked(w, "down")
	}
	if !was && up {
		c.logf("fleet: worker %s up", w.name)
	}
	c.cond.Broadcast()
}

// rendezvousScore is the weighted rendezvous (highest-random-weight)
// hash: each worker scores every key independently, the best score owns
// the key, and removing a worker only moves the keys it owned.
func rendezvousScore(key, name string, weight float64) float64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(key))
	// Map the hash to (0,1), then weight it logarithmically so a worker
	// with twice the weight owns twice the keyspace in expectation.
	u := (float64(h.Sum64()>>11) + 0.5) / (1 << 53)
	return -weight / math.Log(u)
}

// eligibleLocked reports whether w can be assigned fl: present, not
// draining, and not already tried for this flight. Liveness is not
// required — a not-yet-probed worker may come up before dispatch, and
// stuck queues are stolen by healthy peers.
func (w *worker) eligibleLocked(fl *flight) bool {
	return !w.gone && !w.draining && !fl.tried[w.name]
}

// assignLocked picks the rendezvous owner for fl among eligible
// workers; nil when every worker has been tried or drained away.
func (c *Coordinator) assignLocked(fl *flight) *worker {
	var best *worker
	bestScore := math.Inf(-1)
	// Deterministic iteration keeps assignment reproducible under test.
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := c.workers[name]
		if !w.eligibleLocked(fl) {
			continue
		}
		if s := rendezvousScore(fl.key, w.name, w.weight); s > bestScore {
			best, bestScore = w, s
		}
	}
	return best
}
