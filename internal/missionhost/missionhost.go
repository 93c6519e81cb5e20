package missionhost

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sesame/internal/flightrec"
	"sesame/internal/obsv"
	"sesame/internal/platform"
	"sesame/internal/uavsim"
)

// Registry error kinds; the HTTP layer maps them to status codes.
var (
	ErrNotFound     = errors.New("missionhost: mission not found")
	ErrDuplicate    = errors.New("missionhost: duplicate mission id")
	ErrRegistryFull = errors.New("missionhost: registry full")
	ErrClosed       = errors.New("missionhost: host closed")
)

// Config parameterizes a Host. The zero value is usable: sensible
// bounds everywhere and an ephemeral park directory.
type Config struct {
	// Workers bounds the shared tick pool; 0 = GOMAXPROCS capped at 8.
	Workers int
	// MaxLive bounds missions resident in memory; beyond it the least
	// recently accessed mission is parked. 0 = 64.
	MaxLive int
	// MaxMissions bounds the registry (live + parked). 0 = 4096.
	MaxMissions int
	// TickBudget is the default simulation seconds per mission per
	// Round; a Spec's tick_budget overrides it. 0 = 1.
	TickBudget int
	// IdleRounds parks a live mission after this many rounds without
	// any access and with no subscribers. 0 disables idle parking
	// (capacity parking still applies).
	IdleRounds int
	// ParkDir persists parked missions; a host restarted over the same
	// directory recovers them. "" = fresh temp directory, removed on
	// Close.
	ParkDir string
	// Observability publishes the host metric families into this
	// registry; nil disables the layer (Stats still counts).
	Observability *obsv.Registry
}

func (c *Config) normalize() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.MaxLive <= 0 {
		c.MaxLive = 64
	}
	if c.MaxMissions <= 0 {
		c.MaxMissions = 4096
	}
	if c.TickBudget <= 0 {
		c.TickBudget = 1
	}
	if c.TickBudget > maxTickBudget {
		c.TickBudget = maxTickBudget
	}
}

// Snapshot is one published copy-on-write view of a mission. The
// mission's tick loop builds a fresh Snapshot and swaps an atomic
// pointer; watchers load the pointer and read immutable data — no
// lock is shared between the two sides. Seq increases with every
// publication (ticks and state flips alike).
type Snapshot struct {
	Mission string          `json:"mission"`
	Seq     uint64          `json:"seq"`
	Tick    uint64          `json:"tick"`
	Time    float64         `json:"time"`
	Done    bool            `json:"done"`
	Error   string          `json:"error,omitempty"`
	Status  platform.Status `json:"status"`
}

// Info is the registry's directory entry for one mission.
type Info struct {
	ID        string  `json:"id"`
	State     string  `json:"state"` // running | parked | done | failed
	Kind      string  `json:"kind"`  // classic | archetype | scenario
	Seed      int64   `json:"seed"`
	Archetype string  `json:"archetype,omitempty"`
	Tick      uint64  `json:"tick"`
	TimeS     float64 `json:"time_s"`
	Done      bool    `json:"done"`
	Watchers  int     `json:"watchers"`
	Error     string  `json:"error,omitempty"`
}

// Stats is the host's own instrumentation snapshot.
type Stats struct {
	Missions     int    `json:"missions"`
	Live         int    `json:"live"`
	Parked       int    `json:"parked"`
	Watchers     int64  `json:"watchers"`
	Rounds       uint64 `json:"rounds"`
	Ticks        uint64 `json:"ticks"`
	Parks        uint64 `json:"parks"`
	Rehydrations uint64 `json:"rehydrations"`
	SSEDrops     uint64 `json:"sse_drops"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
}

// Host is the mission registry plus the shared tick pool.
//
// Lock order: h.mu before any m.mu before any m.subsMu. The tick
// path holds only its own mission's m.mu; the watcher read path
// holds neither — it loads the mission's atomic snapshot and render
// pointers.
type Host struct {
	cfg          Config
	parkRoot     string
	ownsParkRoot bool
	met          *metrics
	watchers     atomic.Int64

	mu       sync.RWMutex
	closed   bool
	missions map[string]*Mission
	autoID   int
	live     int
	parked   int
}

// Mission is one hosted mission: a seeded platform while live, or a
// parked checkpoint on disk plus its last published snapshot.
type Mission struct {
	host *Host
	id   string
	spec Spec

	// lastAccess is the host round of the most recent watcher access;
	// the idle/capacity eviction policy orders victims by it.
	lastAccess atomic.Uint64
	// snap is the copy-on-write publication point.
	snap atomic.Pointer[Snapshot]
	// rendered is the status body of one published snapshot, shared by
	// every Status read and SSE frame of that snapshot.
	rendered atomic.Pointer[statusRender]

	mu      sync.Mutex // the tick lock: guards everything below
	world   *uavsim.World
	p       *platform.Platform
	end     float64
	seq     uint64
	parked  bool
	done    bool
	failure string
	// digest is persisted when a finished mission parks, so Digest
	// works without rehydrating a platform that no longer exists.
	digest string
	// parkMode records how the parked state was captured: a flightrec
	// checkpoint, a replay recipe, or the final state of a finished
	// mission.
	parkMode string
	// replayTicks is the rebuild recipe of a replay park: tick the
	// freshly built Spec this many times.
	replayTicks uint64

	subsMu     sync.Mutex
	subs       map[*Subscriber]struct{}
	subsClosed bool
}

// parkMeta is the on-disk identity of a parked mission. Mode
// "checkpoint" parks carry a flightrec checkpoint in box/; "replay"
// parks rebuild the Spec and re-tick it ReplayTicks times (the
// fallback for missions whose link traffic never leaves the event
// queue quiescent); "final" parks are finished missions and persist
// only their digest.
type parkMeta struct {
	Spec        Spec      `json:"spec"`
	Mode        string    `json:"mode"`
	ReplayTicks uint64    `json:"replay_ticks,omitempty"`
	Done        bool      `json:"done"`
	Failure     string    `json:"failure,omitempty"`
	Digest      string    `json:"digest,omitempty"`
	Snapshot    *Snapshot `json:"snapshot"`
}

// Park modes.
const (
	parkCheckpoint = "checkpoint"
	parkReplay     = "replay"
	parkFinal      = "final"
)

// New builds a host and recovers any missions parked in
// cfg.ParkDir by a previous process.
func New(cfg Config) (*Host, error) {
	cfg.normalize()
	h := &Host{cfg: cfg, missions: make(map[string]*Mission)}
	if cfg.ParkDir == "" {
		dir, err := os.MkdirTemp("", "sesame-missionhost-")
		if err != nil {
			return nil, fmt.Errorf("missionhost: park dir: %w", err)
		}
		h.parkRoot, h.ownsParkRoot = dir, true
	} else {
		if err := os.MkdirAll(cfg.ParkDir, 0o755); err != nil {
			return nil, fmt.Errorf("missionhost: park dir: %w", err)
		}
		h.parkRoot = cfg.ParkDir
	}
	h.met = newMetrics(cfg.Observability)
	if err := h.recover(); err != nil {
		return nil, err
	}
	h.publishGauges()
	return h, nil
}

// recover re-registers every mission parked under parkRoot, without
// building any platform: recovered missions stay parked until first
// access.
func (h *Host) recover() error {
	entries, err := os.ReadDir(h.parkRoot)
	if err != nil {
		return fmt.Errorf("missionhost: recover: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(h.parkRoot, e.Name(), "meta.json"))
		if err != nil {
			continue // not a park directory; leave it alone
		}
		var meta parkMeta
		if err := json.Unmarshal(data, &meta); err != nil {
			return fmt.Errorf("missionhost: recover %s: %w", e.Name(), err)
		}
		meta.Spec.Normalize()
		if err := meta.Spec.Validate(); err != nil {
			return fmt.Errorf("missionhost: recover %s: %w", e.Name(), err)
		}
		if meta.Spec.ID != e.Name() {
			return fmt.Errorf("missionhost: recover %s: spec names mission %q", e.Name(), meta.Spec.ID)
		}
		switch meta.Mode {
		case parkCheckpoint, parkReplay, parkFinal:
		default:
			return fmt.Errorf("missionhost: recover %s: unknown park mode %q", e.Name(), meta.Mode)
		}
		m := &Mission{
			host: h, id: meta.Spec.ID, spec: meta.Spec,
			parked: true, done: meta.Done, failure: meta.Failure, digest: meta.Digest,
			parkMode: meta.Mode, replayTicks: meta.ReplayTicks,
			subs: make(map[*Subscriber]struct{}),
		}
		if meta.Snapshot != nil {
			m.seq = meta.Snapshot.Seq
			m.snap.Store(meta.Snapshot)
		} else {
			m.seq = 1
			m.snap.Store(&Snapshot{Mission: m.id, Seq: 1, Done: meta.Done, Error: meta.Failure})
		}
		h.missions[m.id] = m
		h.parked++
	}
	return nil
}

// Create registers and builds a new mission. The mission starts
// ticking on the next Round. Creating past MaxLive parks the least
// recently accessed mission to make room.
func (h *Host) Create(spec Spec) (Info, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return Info{}, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return Info{}, ErrClosed
	}
	if spec.ID == "" {
		spec.ID = h.nextIDLocked()
	}
	if _, ok := h.missions[spec.ID]; ok {
		return Info{}, fmt.Errorf("%w: %s", ErrDuplicate, spec.ID)
	}
	if len(h.missions) >= h.cfg.MaxMissions {
		return Info{}, fmt.Errorf("%w: %d missions", ErrRegistryFull, len(h.missions))
	}
	b, err := spec.build(h.platformCfg(spec))
	if err != nil {
		return Info{}, err
	}
	m := &Mission{host: h, id: spec.ID, spec: spec, subs: make(map[*Subscriber]struct{})}
	m.world, m.p, m.end = b.world, b.p, b.end
	m.lastAccess.Store(h.met.rounds.Value())
	m.mu.Lock()
	m.publishLocked()
	m.mu.Unlock()
	h.missions[spec.ID] = m
	h.live++
	h.evictOverCapacityLocked(m)
	h.publishGaugesLocked()
	return h.infoOf(m), nil
}

func (h *Host) nextIDLocked() string {
	for {
		h.autoID++
		id := fmt.Sprintf("m-%04d", h.autoID)
		if _, ok := h.missions[id]; !ok {
			return id
		}
	}
}

func (h *Host) platformCfg(s Spec) platform.Config {
	cfg := platform.DefaultConfig()
	// One worker per mission: parallelism comes from the host pool,
	// and serial ticks replay pooled ones bit-identically anyway.
	cfg.Workers = 1
	cfg.Cells = s.Cells
	return cfg
}

// Mission looks an entry up without touching its platform.
func (h *Host) Mission(id string) (*Mission, bool) {
	h.mu.RLock()
	m, ok := h.missions[id]
	h.mu.RUnlock()
	return m, ok
}

// List returns every mission's Info, ordered by id.
func (h *Host) List() []Info {
	h.mu.RLock()
	ms := make([]*Mission, 0, len(h.missions))
	for _, m := range h.missions {
		ms = append(ms, m)
	}
	h.mu.RUnlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].id < ms[j].id })
	out := make([]Info, len(ms))
	for i, m := range ms {
		out[i] = h.infoOf(m)
	}
	return out
}

// Info returns one mission's directory entry.
func (h *Host) Info(id string) (Info, error) {
	m, ok := h.Mission(id)
	if !ok {
		return Info{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return h.infoOf(m), nil
}

func (h *Host) infoOf(m *Mission) Info {
	info := Info{ID: m.id, Kind: m.spec.Kind(), Seed: m.spec.Seed, Archetype: m.spec.Archetype}
	if snap := m.snap.Load(); snap != nil {
		info.Tick, info.TimeS, info.Done, info.Error = snap.Tick, snap.Time, snap.Done, snap.Error
	}
	m.subsMu.Lock()
	info.Watchers = len(m.subs)
	m.subsMu.Unlock()
	m.mu.Lock()
	parked, done, failure := m.parked, m.done, m.failure
	m.mu.Unlock()
	switch {
	case failure != "":
		info.State = "failed"
	case done:
		info.State = "done"
	case parked:
		info.State = "parked"
	default:
		info.State = "running"
	}
	info.Done = done
	return info
}

// Delete removes a mission: platform closed, subscribers closed,
// park directory purged. Its stored render goes with the Mission, so
// a mission re-created under the same id never serves it.
func (h *Host) Delete(id string) error {
	h.mu.Lock()
	m, ok := h.missions[id]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(h.missions, id)
	m.mu.Lock()
	if m.parked {
		h.parked--
	} else {
		h.live--
	}
	if m.p != nil {
		m.p.Close()
		m.p, m.world = nil, nil
	}
	m.parked = true
	m.mu.Unlock()
	h.publishGaugesLocked()
	h.mu.Unlock()
	m.closeSubs()
	if err := os.RemoveAll(filepath.Join(h.parkRoot, id)); err != nil {
		return err
	}
	return nil
}

// Round advances every live mission by its tick budget on the shared
// worker pool, then applies the idle-parking policy. Missions tick
// independently: each worker holds only its own mission's lock.
func (h *Host) Round() {
	h.mu.RLock()
	if h.closed {
		h.mu.RUnlock()
		return
	}
	work := make([]*Mission, 0, len(h.missions))
	for _, m := range h.missions {
		work = append(work, m)
	}
	h.mu.RUnlock()
	sort.Slice(work, func(i, j int) bool { return work[i].id < work[j].id })

	round := h.met.rounds.Add(1)

	queue := make(chan *Mission)
	var wg sync.WaitGroup
	workers := h.cfg.Workers
	if len(work) < workers {
		workers = len(work)
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range queue {
				if n := m.runBudget(); n > 0 {
					h.met.ticks.Add(n)
				}
			}
		}()
	}
	for _, m := range work {
		queue <- m
	}
	close(queue)
	wg.Wait()

	if h.cfg.IdleRounds > 0 {
		h.parkIdle(round)
	}
	h.publishGauges()
}

// runBudget advances one mission by its per-round tick budget.
func (m *Mission) runBudget() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	budget := m.spec.TickBudget
	if budget <= 0 {
		budget = m.host.cfg.TickBudget
	}
	var n uint64
	for i := 0; i < budget; i++ {
		progressed, _ := m.stepLocked()
		if !progressed {
			break
		}
		n++
	}
	return n
}

// stepLocked is one simulation tick — exactly the standalone mission
// loop (tick while now < end, stop at completion), so a hosted
// mission's digest equals the same Spec flown standalone.
func (m *Mission) stepLocked() (progressed bool, err error) {
	if m.done || m.parked || m.p == nil {
		return false, nil
	}
	if m.world.Clock.Now() >= m.end {
		m.done = true
		m.publishLocked()
		return false, nil
	}
	if err := m.p.Tick(); err != nil {
		m.done = true
		m.failure = err.Error()
		m.publishLocked()
		return false, err
	}
	if m.p.MissionComplete() {
		m.done = true
	}
	m.publishLocked()
	return true, nil
}

// publishLocked swaps in a fresh copy-on-write snapshot and fans it
// out to subscribers. Requires m.mu.
func (m *Mission) publishLocked() {
	m.seq++
	snap := &Snapshot{Mission: m.id, Seq: m.seq, Done: m.done, Error: m.failure}
	if m.p != nil {
		snap.Tick = m.p.Ticks()
		snap.Time = m.world.Clock.Now()
		snap.Status = m.p.Status()
	} else if prev := m.snap.Load(); prev != nil {
		snap.Tick, snap.Time, snap.Status = prev.Tick, prev.Time, prev.Status
	}
	m.snap.Store(snap)
	m.notify(snap)
}

// Snapshot returns the mission's latest published view — a lock-free
// atomic pointer load.
func (m *Mission) Snapshot() *Snapshot { return m.snap.Load() }

// statusRender is a status body together with the snapshot it was
// rendered from.
type statusRender struct {
	snap *Snapshot
	body []byte
}

// render returns snap as JSON plus a trailing newline. It reuses the
// stored render only when that was made from this very snapshot
// pointer, so a stale body is never served; otherwise it renders and
// stores. hit reports the reuse.
func (m *Mission) render(snap *Snapshot) (body []byte, hit bool, err error) {
	if r := m.rendered.Load(); r != nil && r.snap == snap {
		return r.body, true, nil
	}
	body, err = json.Marshal(snap)
	if err != nil {
		return nil, false, err
	}
	body = append(body, '\n')
	m.rendered.Store(&statusRender{snap: snap, body: body})
	return body, false, nil
}

// Status renders a mission's latest snapshot as JSON plus a trailing
// newline. This is the watcher hot path: two atomic pointer loads,
// and a render only on the first read of each published snapshot — no
// tick lock, no registry write lock.
func (h *Host) Status(id string) ([]byte, error) {
	m, ok := h.Mission(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	m.touch()
	snap := m.Snapshot()
	if snap == nil {
		return nil, errors.New("missionhost: " + id + ": no snapshot published")
	}
	body, hit, err := m.render(snap)
	if hit {
		h.met.cacheHits.Inc()
	} else {
		h.met.cacheMisses.Inc()
	}
	return body, err
}

// ID returns the mission's registry name.
func (m *Mission) ID() string { return m.id }

// touch stamps the mission as accessed this round for the eviction
// policy.
func (m *Mission) touch() { m.lastAccess.Store(m.host.met.rounds.Value()) }

// ---- Parking: checkpoint to flightrec, release the platform ----

func (m *Mission) parkDir() string { return filepath.Join(m.host.parkRoot, m.id) }

// quiesceSeekTicks bounds how far park chases a quiescent tick
// boundary before falling back to a replay park.
const quiesceSeekTicks = 8

// parkLocked checkpoints the mission through the flightrec path (or
// records a replay recipe / final digest) and drops its platform from
// memory. Requires m.mu.
func (m *Mission) parkLocked() error {
	if m.parked || m.p == nil {
		return nil
	}
	// A flightrec checkpoint needs a quiescent event queue. Tick
	// toward the next naturally quiescent boundary — normal mission
	// progress, published as usual, so the rehydrated run still
	// replays the standalone one. Missions whose link traffic keeps
	// frames perpetually in flight never quiesce; those park as a
	// replay recipe instead.
	for i := 0; i < quiesceSeekTicks && !m.done && m.world.Clock.Pending() > 0; i++ {
		if _, err := m.stepLocked(); err != nil {
			break // failure state is itself parkable (digest persisted)
		}
	}
	meta := parkMeta{Spec: m.spec, Done: m.done, Failure: m.failure, Mode: parkCheckpoint}
	dir := m.parkDir()
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	switch {
	case m.done:
		meta.Mode = parkFinal
		meta.Digest = MissionDigest(m.p)
	case m.world.Clock.Pending() > 0:
		meta.Mode = parkReplay
		meta.ReplayTicks = m.p.Ticks()
	default:
		ckpt, err := m.p.Checkpoint()
		if err != nil {
			return fmt.Errorf("missionhost: park %s: %w", m.id, err)
		}
		state, err := json.Marshal(ckpt)
		if err != nil {
			return fmt.Errorf("missionhost: park %s: %w", m.id, err)
		}
		rec, err := flightrec.NewRecorder(filepath.Join(dir, "box"), m.spec.Seed, m.p.ConfigDigest(), 1, flightrec.Options{})
		if err != nil {
			return fmt.Errorf("missionhost: park %s: %w", m.id, err)
		}
		if err := rec.RecordSnapshot(flightrec.Snapshot{Tick: ckpt.Tick, Time: m.world.Clock.Now(), State: state}); err != nil {
			rec.Close()
			return fmt.Errorf("missionhost: park %s: %w", m.id, err)
		}
		if err := rec.Close(); err != nil {
			return fmt.Errorf("missionhost: park %s: %w", m.id, err)
		}
	}
	meta.Snapshot = m.snap.Load()
	data, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), data, 0o644); err != nil {
		return err
	}
	m.digest = meta.Digest
	m.parkMode = meta.Mode
	m.replayTicks = meta.ReplayTicks
	m.p.Close()
	m.p, m.world = nil, nil
	m.parked = true
	m.host.met.parks.Inc()
	return nil
}

// rehydrateLocked rebuilds a parked, unfinished mission from its Spec
// and overlays the flightrec checkpoint — the same resume path a
// crashed standalone mission takes. Finished parked missions stay as
// they are: their snapshot and digest are already final. Requires
// m.mu. Reports whether a platform came back to life.
func (m *Mission) rehydrateLocked() (revived bool, err error) {
	if !m.parked || m.done {
		return false, nil
	}
	b, err := m.spec.build(m.host.platformCfg(m.spec))
	if err != nil {
		return false, fmt.Errorf("missionhost: rehydrate %s: %w", m.id, err)
	}
	if m.parkMode == parkReplay {
		// Replay recipe: the determinism contract makes re-ticking the
		// rebuilt Spec bit-identical to the parked run.
		for b.p.Ticks() < m.replayTicks && b.world.Clock.Now() < b.end {
			if err := b.p.Tick(); err != nil {
				b.p.Close()
				return false, fmt.Errorf("missionhost: rehydrate %s: replay: %w", m.id, err)
			}
		}
	} else {
		snap, hdr, err := flightrec.LatestSnapshot(filepath.Join(m.parkDir(), "box"), 0)
		if err != nil {
			b.p.Close()
			return false, fmt.Errorf("missionhost: rehydrate %s: %w", m.id, err)
		}
		if hdr.ConfigDigest != b.p.ConfigDigest() {
			b.p.Close()
			return false, fmt.Errorf("missionhost: rehydrate %s: checkpoint is from a different configuration", m.id)
		}
		var ps platform.PlatformSnapshot
		if err := json.Unmarshal(snap.State, &ps); err != nil {
			b.p.Close()
			return false, fmt.Errorf("missionhost: rehydrate %s: %w", m.id, err)
		}
		if err := b.p.RestoreCheckpoint(&ps); err != nil {
			b.p.Close()
			return false, fmt.Errorf("missionhost: rehydrate %s: %w", m.id, err)
		}
	}
	m.world, m.p, m.end = b.world, b.p, b.end
	m.parked = false
	m.publishLocked()
	if err := os.RemoveAll(m.parkDir()); err != nil {
		return true, err
	}
	m.host.met.rehydrations.Inc()
	return true, nil
}

// wakeLocked rehydrates m if parked and rebalances the live budget,
// possibly parking a colder mission. Requires h.mu (write).
func (h *Host) wakeLocked(m *Mission) error {
	m.mu.Lock()
	revived, err := m.rehydrateLocked()
	m.mu.Unlock()
	if err != nil {
		return err
	}
	if revived {
		h.parked--
		h.live++
		h.evictOverCapacityLocked(m)
		h.publishGaugesLocked()
	}
	return nil
}

// Resume forces a parked mission back into memory.
func (h *Host) Resume(id string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, ok := h.missions[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if h.closed {
		return ErrClosed
	}
	m.touch()
	return h.wakeLocked(m)
}

// Park forces a mission out of memory (the eviction path, callable
// directly — tests and shutdown use it).
func (h *Host) Park(id string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, ok := h.missions[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return h.parkCountedLocked(m)
}

func (h *Host) parkCountedLocked(m *Mission) error {
	m.mu.Lock()
	wasLive := !m.parked && m.p != nil
	var err error
	if wasLive {
		err = m.parkLocked()
	}
	nowParked := m.parked
	m.mu.Unlock()
	if wasLive && nowParked {
		h.live--
		h.parked++
		h.publishGaugesLocked()
	}
	return err
}

// evictOverCapacityLocked parks least-recently-accessed missions
// until the live count fits MaxLive. keep is never chosen. Requires
// h.mu (write).
func (h *Host) evictOverCapacityLocked(keep *Mission) {
	for h.live > h.cfg.MaxLive {
		victim := h.victimLocked(keep)
		if victim == nil {
			return
		}
		if err := h.parkCountedLocked(victim); err != nil {
			return // mission stays live; retry on a later round
		}
	}
}

// victimLocked picks the eviction victim: finished missions first,
// then watcher-less ones, oldest access first, lowest mission ID on a
// tie — so which mission parks never depends on map order.
func (h *Host) victimLocked(keep *Mission) *Mission {
	var best *Mission
	var bestScore [3]uint64
	for _, m := range h.missions {
		if m == keep {
			continue
		}
		m.mu.Lock()
		candidate := !m.parked && m.p != nil
		done := m.done
		m.mu.Unlock()
		if !candidate {
			continue
		}
		m.subsMu.Lock()
		watched := len(m.subs) > 0
		m.subsMu.Unlock()
		score := [3]uint64{boolScore(!done), boolScore(watched), m.lastAccess.Load()}
		if best == nil || lessScore(score, bestScore) || (score == bestScore && m.id < best.id) {
			best, bestScore = m, score
		}
	}
	return best
}

func boolScore(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func lessScore(a, b [3]uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// parkIdle parks live missions that nobody touched for IdleRounds
// rounds and nobody is streaming.
func (h *Host) parkIdle(round uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for _, m := range h.missions {
		last := m.lastAccess.Load()
		if round < last+uint64(h.cfg.IdleRounds) {
			continue
		}
		m.subsMu.Lock()
		watched := len(m.subs) > 0
		m.subsMu.Unlock()
		if watched {
			continue
		}
		_ = h.parkCountedLocked(m)
	}
}

// Digest fingerprints a mission's current state, rehydrating it if
// parked mid-flight; a finished parked mission answers from its
// persisted digest.
func (h *Host) Digest(id string) (string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, ok := h.missions[id]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if err := h.wakeLocked(m); err != nil {
		return "", err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.p == nil {
		if m.digest != "" {
			return m.digest, nil
		}
		return "", fmt.Errorf("missionhost: %s: no platform and no persisted digest", id)
	}
	return MissionDigest(m.p), nil
}

// Stats snapshots the host counters.
func (h *Host) Stats() Stats {
	h.mu.RLock()
	s := Stats{Missions: len(h.missions), Live: h.live, Parked: h.parked}
	h.mu.RUnlock()
	s.Watchers = h.watchers.Load()
	s.Rounds = h.met.rounds.Value()
	s.Ticks = h.met.ticks.Value()
	s.Parks = h.met.parks.Value()
	s.Rehydrations = h.met.rehydrations.Value()
	s.SSEDrops = h.met.sseDrops.Value()
	s.CacheHits = h.met.cacheHits.Value()
	s.CacheMisses = h.met.cacheMisses.Value()
	return s
}

// publishGauges mirrors the live/parked/watcher counts into the
// metrics registry, taking the host lock itself. Callers already
// holding h.mu use publishGaugesLocked.
func (h *Host) publishGauges() {
	h.mu.RLock()
	live, parked := h.live, h.parked
	h.mu.RUnlock()
	h.setGauges(live, parked)
}

// publishGaugesLocked requires h.mu (read or write).
func (h *Host) publishGaugesLocked() { h.setGauges(h.live, h.parked) }

func (h *Host) setGauges(live, parked int) {
	if h.met == nil || h.met.reg == nil {
		return
	}
	h.met.live.Set(float64(live))
	h.met.parked.Set(float64(parked))
	h.met.watchers.Set(float64(h.watchers.Load()))
}

// Shutdown is the graceful exit: reject new work, close every
// subscriber, park every live mission (checkpointed through
// flightrec, recoverable by the next New over the same ParkDir).
func (h *Host) Shutdown() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	ms := make([]*Mission, 0, len(h.missions))
	for _, m := range h.missions {
		ms = append(ms, m)
	}
	h.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].id < ms[j].id })
	for _, m := range ms {
		m.closeSubs()
	}
	var errs []error
	h.mu.Lock()
	for _, m := range ms {
		if err := h.parkCountedLocked(m); err != nil {
			errs = append(errs, err)
		}
	}
	h.publishGaugesLocked()
	h.mu.Unlock()
	return errors.Join(errs...)
}

// Close hard-stops the host: subscribers closed, platforms released
// without checkpointing, the ephemeral park directory removed. Use
// Shutdown to keep parked state recoverable.
func (h *Host) Close() {
	h.mu.Lock()
	h.closed = true
	ms := make([]*Mission, 0, len(h.missions))
	for _, m := range h.missions {
		ms = append(ms, m)
	}
	h.mu.Unlock()
	for _, m := range ms {
		m.closeSubs()
		m.mu.Lock()
		if m.p != nil {
			m.p.Close()
			m.p, m.world = nil, nil
			m.parked = true
		}
		m.mu.Unlock()
	}
	if h.ownsParkRoot {
		_ = os.RemoveAll(h.parkRoot)
	}
}
