package missionhost

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sesame/internal/obsv"
)

func newTestHost(t *testing.T, cfg Config) *Host {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(h.Close)
	return h
}

// quickSpec is a small classic mission that ticks fast in tests.
func quickSpec(id string, seed int64) Spec {
	return Spec{ID: id, Seed: seed, UAVs: 2, Persons: 2, HorizonS: 150}
}

func roundsUntilDone(t *testing.T, h *Host, id string, max int) {
	t.Helper()
	for i := 0; i < max; i++ {
		info, err := h.Info(id)
		if err != nil {
			t.Fatalf("Info(%s): %v", id, err)
		}
		if info.Done {
			return
		}
		h.Round()
	}
	t.Fatalf("mission %s not done after %d rounds", id, max)
}

func TestSpecParseDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{"id":"alpha"}`))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if s.Seed != 1 || s.UAVs != defaultSpecUAVs || s.Persons != defaultSpecPersons || s.HorizonS != defaultSpecHorizonS {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if s.Kind() != "classic" {
		t.Fatalf("kind = %q, want classic", s.Kind())
	}
}

func TestSpecParseRejects(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"unknown field", `{"id":"a","bogus":1}`},
		{"trailing data", `{"id":"a"} {}`},
		{"bad id", `{"id":"no spaces"}`},
		{"archetype and scenario", `{"archetype":"maritime_sar","scenario":{"name":"x"}}`},
		{"classic fields with archetype", `{"archetype":"maritime_sar","uavs":4}`},
		{"unknown archetype", `{"archetype":"volcano"}`},
		{"bad scenario doc", `{"scenario":{"bogus":true}}`},
		{"uavs too many", `{"uavs":99999}`},
		{"uavs above the scenario fleet bound", `{"uavs":1025}`},
		{"persons out of range", `{"persons":-2}`},
		{"horizon out of range", `{"horizon_s":1e9}`},
		{"negative cells", `{"cells":-1}`},
		{"tick budget out of range", `{"tick_budget":9999}`},
	}
	for _, tc := range cases {
		if _, err := ParseSpec([]byte(tc.doc)); err == nil {
			t.Errorf("%s: ParseSpec accepted %s", tc.name, tc.doc)
		}
	}
}

func TestSpecKinds(t *testing.T) {
	arch := Spec{Archetype: "maritime_sar"}
	arch.Normalize()
	if err := arch.Validate(); err != nil {
		t.Fatalf("archetype spec: %v", err)
	}
	if arch.Kind() != "archetype" {
		t.Fatalf("kind = %q", arch.Kind())
	}
	doc := Spec{Scenario: json.RawMessage(`{`)}
	doc.Normalize()
	if err := doc.Validate(); err == nil {
		t.Fatal("malformed embedded scenario accepted")
	}
}

func TestCreateDuplicateID(t *testing.T) {
	h := newTestHost(t, Config{})
	if _, err := h.Create(quickSpec("twin", 1)); err != nil {
		t.Fatalf("first create: %v", err)
	}
	_, err := h.Create(quickSpec("twin", 2))
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate create: got %v, want ErrDuplicate", err)
	}
}

func TestCreateAutoIDs(t *testing.T) {
	h := newTestHost(t, Config{})
	a, err := h.Create(quickSpec("", 1))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	b, err := h.Create(quickSpec("", 2))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if a.ID != "m-0001" || b.ID != "m-0002" {
		t.Fatalf("auto ids = %q, %q", a.ID, b.ID)
	}
}

func TestRegistryFull(t *testing.T) {
	h := newTestHost(t, Config{MaxMissions: 1})
	if _, err := h.Create(quickSpec("only", 1)); err != nil {
		t.Fatalf("create: %v", err)
	}
	_, err := h.Create(quickSpec("straw", 2))
	if !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("over-full create: got %v, want ErrRegistryFull", err)
	}
}

func TestRoundAdvancesAndFinishes(t *testing.T) {
	h := newTestHost(t, Config{TickBudget: 8})
	info, err := h.Create(quickSpec("run", 3))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if info.State != "running" {
		t.Fatalf("state = %q", info.State)
	}
	m, _ := h.Mission("run")
	before := m.Snapshot()
	h.Round()
	after := m.Snapshot()
	if after.Seq <= before.Seq || after.Tick <= before.Tick {
		t.Fatalf("round did not advance: before %+v after %+v", before, after)
	}
	if len(after.Status.UAVs) != 2 {
		t.Fatalf("snapshot carries %d UAVs, want 2", len(after.Status.UAVs))
	}
	roundsUntilDone(t, h, "run", 1000)
	info, _ = h.Info("run")
	if info.State != "done" || !info.Done {
		t.Fatalf("finished mission info = %+v", info)
	}
	st := h.Stats()
	if st.Ticks == 0 || st.Rounds == 0 {
		t.Fatalf("stats did not count: %+v", st)
	}
}

// TestEvictionRacingNewWatcher is the registry edge case from the
// issue: a watcher subscribing to a just-evicted mission must get a
// rehydrated live stream, not a 404.
func TestEvictionRacingNewWatcher(t *testing.T) {
	h := newTestHost(t, Config{MaxLive: 1, TickBudget: 2})
	if _, err := h.Create(quickSpec("cold", 1)); err != nil {
		t.Fatalf("create: %v", err)
	}
	h.Round()
	// The second create blows the MaxLive budget and parks "cold".
	if _, err := h.Create(quickSpec("hot", 2)); err != nil {
		t.Fatalf("create: %v", err)
	}
	info, _ := h.Info("cold")
	if info.State != "parked" {
		t.Fatalf("expected cold to be parked, state = %q", info.State)
	}
	if _, err := os.Stat(filepath.Join(h.parkRoot, "cold", "meta.json")); err != nil {
		t.Fatalf("no park meta on disk: %v", err)
	}
	sub, err := h.Subscribe("cold", 4)
	if err != nil {
		t.Fatalf("Subscribe after eviction: %v", err)
	}
	defer sub.Close()
	snap := <-sub.C()
	if snap == nil || snap.Mission != "cold" {
		t.Fatalf("bad seeded snapshot: %+v", snap)
	}
	info, _ = h.Info("cold")
	if info.State != "running" {
		t.Fatalf("cold not rehydrated, state = %q", info.State)
	}
	if h.Stats().Rehydrations == 0 {
		t.Fatal("rehydration not counted")
	}
	// The stream is live again: the next round publishes.
	h.Round()
	got := false
	for !got {
		select {
		case s := <-sub.C():
			if s.Seq > snap.Seq {
				got = true
			}
		default:
			h.Round()
		}
	}
}

// TestEvictionTieBreaksByID: unwatched live missions with equal
// eviction scores (same access round, none done) must park lowest ID
// first on every run, never in map order.
func TestEvictionTieBreaksByID(t *testing.T) {
	for run := 0; run < 10; run++ {
		h := newTestHost(t, Config{MaxLive: 4})
		for _, id := range []string{"m4", "m2", "m3", "m1"} {
			if _, err := h.Create(quickSpec(id, 1)); err != nil {
				t.Fatalf("create %s: %v", id, err)
			}
		}
		for i, id := range []string{"n1", "n2", "n3"} {
			if _, err := h.Create(quickSpec(id, 2)); err != nil {
				t.Fatalf("create %s: %v", id, err)
			}
			var parked []string
			for _, in := range h.List() {
				if in.State == "parked" {
					parked = append(parked, in.ID)
				}
			}
			want := []string{"m1", "m2", "m3"}[:i+1]
			if strings.Join(parked, ",") != strings.Join(want, ",") {
				t.Fatalf("run %d: after creating %s parked %v, want %v", run, id, parked, want)
			}
		}
		h.Close()
	}
}

// TestCacheInvalidationOnTick: a mission's stored render belongs to
// one snapshot, so a tick advance must produce a fresh render, never a
// stale hit, and every body is exactly the snapshot's JSON plus a
// newline.
func TestCacheInvalidationOnTick(t *testing.T) {
	h := newTestHost(t, Config{})
	if _, err := h.Create(quickSpec("fresh", 1)); err != nil {
		t.Fatalf("create: %v", err)
	}
	first, err := h.Status("fresh")
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	again, _ := h.Status("fresh")
	if &first[0] != &again[0] {
		t.Fatal("second read before any tick should be a cache hit (same bytes)")
	}
	st := h.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("cache counters = hits %d misses %d", st.CacheHits, st.CacheMisses)
	}
	h.Round()
	after, _ := h.Status("fresh")
	if string(after) == string(first) {
		t.Fatal("tick advance served a stale cached render")
	}
	var v Snapshot
	if err := json.Unmarshal(after, &v); err != nil {
		t.Fatalf("rendered status is not JSON: %v", err)
	}
	if v.Seq <= 1 || v.Mission != "fresh" {
		t.Fatalf("rendered snapshot = %+v", v)
	}
	if h.Stats().CacheMisses != 2 {
		t.Fatalf("tick advance should miss the cache: %+v", h.Stats())
	}
	m, _ := h.Mission("fresh")
	want, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(want)+"\n" {
		t.Fatalf("Status body is not the snapshot's JSON plus a newline:\n got %s\nwant %s", after, want)
	}
}

func TestIdleParking(t *testing.T) {
	h := newTestHost(t, Config{IdleRounds: 2})
	if _, err := h.Create(quickSpec("idle", 1)); err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 3; i++ {
		h.Round()
	}
	info, _ := h.Info("idle")
	if info.State != "parked" {
		t.Fatalf("idle mission state = %q, want parked", info.State)
	}
	// Parked missions do not tick.
	tick := info.Tick
	h.Round()
	info, _ = h.Info("idle")
	if info.Tick != tick {
		t.Fatal("parked mission kept ticking")
	}
	// An explicit resume brings it back.
	if err := h.Resume("idle"); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	info, _ = h.Info("idle")
	if info.State != "running" {
		t.Fatalf("resumed state = %q", info.State)
	}
}

func TestSubscribedMissionIsNotIdleParked(t *testing.T) {
	h := newTestHost(t, Config{IdleRounds: 1})
	if _, err := h.Create(quickSpec("watched", 1)); err != nil {
		t.Fatalf("create: %v", err)
	}
	sub, err := h.Subscribe("watched", 64)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Close()
	for i := 0; i < 4; i++ {
		h.Round()
	}
	info, _ := h.Info("watched")
	if info.State != "running" {
		t.Fatalf("watched mission was idle-parked: state %q", info.State)
	}
	if info.Watchers != 1 {
		t.Fatalf("watchers = %d", info.Watchers)
	}
}

func TestSubscriberDropOldest(t *testing.T) {
	h := newTestHost(t, Config{TickBudget: 4})
	if _, err := h.Create(quickSpec("firehose", 1)); err != nil {
		t.Fatalf("create: %v", err)
	}
	sub, err := h.Subscribe("firehose", 1)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Close()
	for i := 0; i < 5; i++ {
		h.Round()
	}
	if h.Stats().SSEDrops == 0 {
		t.Fatal("full 1-slot queue never dropped")
	}
	// The queued snapshot is the freshest one, not the oldest.
	snap := <-sub.C()
	if latest := (func() *Snapshot { m, _ := h.Mission("firehose"); return m.Snapshot() })(); snap.Seq != latest.Seq {
		t.Fatalf("queued seq %d, latest %d: drop-oldest should keep the newest", snap.Seq, latest.Seq)
	}
}

func TestSubscriberCloseIsIdempotent(t *testing.T) {
	h := newTestHost(t, Config{})
	if _, err := h.Create(quickSpec("bye", 1)); err != nil {
		t.Fatalf("create: %v", err)
	}
	sub, err := h.Subscribe("bye", 2)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	sub.Close()
	sub.Close()
	if h.Stats().Watchers != 0 {
		t.Fatalf("watchers = %d after close", h.Stats().Watchers)
	}
	if _, err := h.Subscribe("missing", 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Subscribe(missing) = %v", err)
	}
}

func TestDelete(t *testing.T) {
	h := newTestHost(t, Config{})
	if _, err := h.Create(quickSpec("gone", 1)); err != nil {
		t.Fatalf("create: %v", err)
	}
	sub, err := h.Subscribe("gone", 2)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	<-sub.C() // seeded snapshot
	if err := h.Delete("gone"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, open := <-sub.C(); open {
		t.Fatal("subscriber channel still open after Delete")
	}
	if _, err := h.Info("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Info after delete = %v", err)
	}
	if _, err := h.Status("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Status after delete = %v", err)
	}
	if err := h.Delete("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete = %v", err)
	}
	// A mission re-created under a deleted id restarts at the same seq;
	// its first read must render the new mission, not serve the old
	// mission's body.
	if _, err := h.Create(quickSpec("again", 1)); err != nil {
		t.Fatalf("create: %v", err)
	}
	old, err := h.Status("again")
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if err := h.Delete("again"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	spec := quickSpec("again", 2)
	spec.UAVs = 3
	if _, err := h.Create(spec); err != nil {
		t.Fatalf("re-create: %v", err)
	}
	got, err := h.Status("again")
	if err != nil {
		t.Fatalf("Status after re-create: %v", err)
	}
	m, _ := h.Mission("again")
	want, _ := json.Marshal(m.Snapshot())
	if string(got) != string(want)+"\n" || string(got) == string(old) {
		t.Fatalf("re-created mission served a stale body:\n got %s\nwant %s", got, want)
	}
	// Deleting a parked mission also clears its disk state.
	if _, err := h.Create(quickSpec("parked-gone", 1)); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := h.Park("parked-gone"); err != nil {
		t.Fatalf("Park: %v", err)
	}
	dir := filepath.Join(h.parkRoot, "parked-gone")
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("park dir missing before delete: %v", err)
	}
	if err := h.Delete("parked-gone"); err != nil {
		t.Fatalf("Delete parked: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("park dir still present after delete: %v", err)
	}
}

func TestShutdownParksEverythingAndRecovers(t *testing.T) {
	dir := t.TempDir()
	h1, err := New(Config{ParkDir: dir, TickBudget: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := h1.Create(quickSpec("survivor", 5)); err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 5; i++ {
		h1.Round()
	}
	before, _ := h1.Info("survivor")
	if err := h1.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := h1.Create(quickSpec("late", 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after shutdown = %v", err)
	}
	h1.Round() // must be a no-op, not a panic

	h2, err := New(Config{ParkDir: dir, TickBudget: 4})
	if err != nil {
		t.Fatalf("recovering New: %v", err)
	}
	t.Cleanup(h2.Close)
	info, err := h2.Info("survivor")
	if err != nil {
		t.Fatalf("recovered Info: %v", err)
	}
	if info.State != "parked" || info.Tick != before.Tick {
		t.Fatalf("recovered info = %+v, want parked at tick %d", info, before.Tick)
	}
	// The recovered mission flies on to completion.
	if err := h2.Resume("survivor"); err != nil {
		t.Fatalf("Resume recovered: %v", err)
	}
	roundsUntilDone(t, h2, "survivor", 1000)
}

func TestRecoverRejectsMismatchedMeta(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "liar")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, "meta.json"), []byte(`{"spec":{"id":"other"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{ParkDir: dir}); err == nil || !strings.Contains(err.Error(), "liar") {
		t.Fatalf("New over mismatched meta = %v", err)
	}
	if err := os.WriteFile(filepath.Join(bad, "meta.json"), []byte(`not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{ParkDir: dir}); err == nil {
		t.Fatal("New accepted corrupt meta.json")
	}
}

func TestFinishedParkPersistsDigest(t *testing.T) {
	dir := t.TempDir()
	h, err := New(Config{ParkDir: dir, TickBudget: 16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := h.Create(quickSpec("finis", 9)); err != nil {
		t.Fatalf("create: %v", err)
	}
	roundsUntilDone(t, h, "finis", 1000)
	want, err := h.Digest("finis")
	if err != nil {
		t.Fatalf("Digest live: %v", err)
	}
	if err := h.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// A finished park carries no checkpoint box, only the digest.
	if _, err := os.Stat(filepath.Join(dir, "finis", "box")); !os.IsNotExist(err) {
		t.Fatalf("finished park wrote a checkpoint box: %v", err)
	}
	h2, err := New(Config{ParkDir: dir})
	if err != nil {
		t.Fatalf("recovering New: %v", err)
	}
	t.Cleanup(h2.Close)
	got, err := h2.Digest("finis")
	if err != nil {
		t.Fatalf("Digest recovered: %v", err)
	}
	if got != want {
		t.Fatalf("recovered digest %s != live digest %s", got, want)
	}
	info, _ := h2.Info("finis")
	if info.State != "done" {
		t.Fatalf("recovered finished state = %q", info.State)
	}
}

func TestHostStatsAndMetricsFamilies(t *testing.T) {
	reg := obsv.NewRegistry()
	h := newTestHost(t, Config{Observability: reg, MaxLive: 1})
	if _, err := h.Create(quickSpec("a", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Create(quickSpec("b", 2)); err != nil {
		t.Fatal(err)
	}
	h.Round()
	if _, err := h.Status("a"); err != nil {
		t.Fatal(err)
	}
	vals := reg.CounterValues()
	for _, name := range []string{
		"sesame_missionhost_rounds_total",
		"sesame_missionhost_ticks_total",
		"sesame_missionhost_parks_total",
	} {
		if vals[name] == 0 {
			t.Errorf("metric %s never incremented (have %v)", name, vals)
		}
	}
	st := h.Stats()
	if st.Missions != 2 || st.Live != 1 || st.Parked != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Every Stats counter is its registry family.
	if _, err := h.Status("a"); err != nil {
		t.Fatal(err)
	}
	if err := h.Resume("a"); err != nil {
		t.Fatal(err)
	}
	sub, err := h.Subscribe("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		h.Round()
	}
	sub.Close()
	st = h.Stats()
	vals = reg.CounterValues()
	for name, got := range map[string]uint64{
		"sesame_missionhost_rounds_total":       st.Rounds,
		"sesame_missionhost_ticks_total":        st.Ticks,
		"sesame_missionhost_parks_total":        st.Parks,
		"sesame_missionhost_rehydrations_total": st.Rehydrations,
		"sesame_missionhost_sse_dropped_total":  st.SSEDrops,
		"sesame_missionhost_cache_hits_total":   st.CacheHits,
		"sesame_missionhost_cache_misses_total": st.CacheMisses,
	} {
		if got == 0 || got != vals[name] {
			t.Errorf("Stats counter for %s = %d, registry %d", name, got, vals[name])
		}
	}
	// A host without a registry still counts.
	bare := newTestHost(t, Config{MaxLive: 1})
	for _, id := range []string{"a", "b"} {
		if _, err := bare.Create(quickSpec(id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	bare.Round()
	for i := 0; i < 2; i++ {
		if _, err := bare.Status("a"); err != nil {
			t.Fatal(err)
		}
	}
	if st := bare.Stats(); st.Rounds != 1 || st.Ticks == 0 || st.Parks != 1 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("unregistered host stats = %+v", st)
	}
}

func TestRoundWorkerPoolTicksAllMissions(t *testing.T) {
	h := newTestHost(t, Config{Workers: 4, TickBudget: 2})
	for i := 0; i < 9; i++ {
		if _, err := h.Create(quickSpec(fmt.Sprintf("w%d", i), int64(i+1))); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	h.Round()
	for i := 0; i < 9; i++ {
		info, _ := h.Info(fmt.Sprintf("w%d", i))
		if info.Tick == 0 {
			t.Fatalf("mission w%d never ticked", i)
		}
	}
}

// TestMissionHostRaceSmoke is the CI race-detector gate: 8 missions
// ticked for 50 rounds while 32 watchers hammer the lock-free read
// path and a streaming subscriber drains each mission. No watcher may
// ever see a mission's Seq go backwards.
func TestMissionHostRaceSmoke(t *testing.T) {
	h := newTestHost(t, Config{Workers: 4, TickBudget: 2, MaxLive: 6})
	const missions, watchers, rounds = 8, 32, 50
	ids := make([]string, missions)
	for i := range ids {
		ids[i] = fmt.Sprintf("race-%d", i)
		if _, err := h.Create(quickSpec(ids[i], int64(i+1))); err != nil {
			t.Fatalf("create: %v", err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < watchers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lastSeq := make(map[string]uint64, missions)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Yield between reads, as a watcher waiting on its
				// connection would: the read path takes no lock, so a
				// pure spin loop would starve the tick workers of
				// scheduler time on a machine with few CPUs.
				runtime.Gosched()
				id := ids[(w+i)%missions]
				body, err := h.Status(id)
				if err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("watcher read: %v", err)
					return
				}
				if err == nil {
					var v struct{ Seq uint64 }
					if err := json.Unmarshal(body, &v); err != nil {
						t.Errorf("watcher decode: %v", err)
						return
					}
					if v.Seq < lastSeq[id] {
						t.Errorf("watcher %d: %s seq went %d -> %d", w, id, lastSeq[id], v.Seq)
						return
					}
					lastSeq[id] = v.Seq
				}
				if _, err := h.Info(id); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("watcher info: %v", err)
					return
				}
			}
		}(w)
	}
	subs := make([]*Subscriber, 0, missions)
	for _, id := range ids {
		sub, err := h.Subscribe(id, 8)
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		subs = append(subs, sub)
		wg.Add(1)
		go func(sub *Subscriber) {
			defer wg.Done()
			for range sub.C() {
			}
		}(sub)
	}
	for i := 0; i < rounds; i++ {
		h.Round()
	}
	close(stop)
	for _, sub := range subs {
		sub.Close()
	}
	wg.Wait()
	st := h.Stats()
	if st.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", st.Rounds, rounds)
	}
	if st.Ticks == 0 {
		t.Fatal("no mission ever ticked")
	}
}
