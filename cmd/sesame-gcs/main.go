// Command sesame-gcs runs the ground-control-station view of the
// platform: a live simulated SAR mission served over HTTP as JSON —
// the data feed behind the paper's Fig. 4 web GUI.
//
//	sesame-gcs -addr :8080
//	sesame-gcs -uavs 128 -cells 0    # fleet-scale sharded mission
//	curl localhost:8080/              # fleet status snapshot
//	curl localhost:8080/events       # EDDI event history
//	curl localhost:8080/metrics      # Prometheus text exposition
//	curl localhost:8080/debug/pprof/ # pprof index
//	curl localhost:8080/blackbox     # recent incident window (-blackbox)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sesame"
)

// gcs bundles one running mission with its HTTP surface: the Fig. 4
// JSON feed plus the observability endpoints.
type gcs struct {
	world *sesame.World
	p     *sesame.Platform
	reg   *sesame.ObsvRegistry
	// rec/recDir are the attached black-box recorder (nil when the
	// -blackbox flag is off); /blackbox serves its recent window.
	rec    *sesame.FlightRecorder
	recDir string
	// The platform is not internally synchronized, so one mutex
	// serializes ticks against anything reading platform state. The
	// JSON feed itself is served from the copy-on-write snapshot below,
	// so status/event requests never take this lock; the metrics
	// registry is internally synchronized and lock-free too.
	mu sync.Mutex
	// feed is the latest published view of the mission: the rendered
	// status document plus the EDDI history, swapped in atomically
	// after every tick. Readers load the pointer and never block.
	feed atomic.Pointer[feedView]
}

// feedView is one copy-on-write publication of the mission feed.
type feedView struct {
	status []byte // rendered "/" document, trailing newline included
	events []feedEvent
}

// feedEvent mirrors the EDDI event wire format of the "/events" route.
type feedEvent struct {
	Kind     string  `json:"kind"`
	UAV      string  `json:"uav"`
	Time     float64 `json:"time"`
	Severity float64 `json:"severity"`
	Summary  string  `json:"summary"`
}

// gcsOptions carries every flag; parseArgs fills it so tests can build
// stations without touching the process-global flag set.
type gcsOptions struct {
	addr     string
	seed     int64
	uavs     int
	cells    int
	tickMS   int
	spoofAt  float64
	blackbox string
	// Multi-mission host mode (-multi): serve a mission registry
	// instead of one hardwired demo mission.
	multi       bool
	parkDir     string
	maxLive     int
	maxMissions int
	tickBudget  int
	idleRounds  int
}

// parseArgs parses argv (without the program name) into gcsOptions.
func parseArgs(args []string) (gcsOptions, error) {
	var o gcsOptions
	fs := flag.NewFlagSet("sesame-gcs", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.IntVar(&o.uavs, "uavs", 3, "fleet size (UAVs u1..uN)")
	fs.IntVar(&o.cells, "cells", 0, "scheduler cells for the fleet pipeline, a speed setting that never changes results (0 = auto: one cell per 64 UAVs, 1 = one cell, run inline)")
	fs.IntVar(&o.tickMS, "tick-ms", 200, "wall-clock milliseconds per simulated second")
	fs.Float64Var(&o.spoofAt, "spoof", 0, "inject a spoofing attack on u2 this many seconds after launch (0 = off)")
	fs.StringVar(&o.blackbox, "blackbox", "", "record the mission into this black-box directory and serve /blackbox")
	fs.BoolVar(&o.multi, "multi", false, "serve a multi-mission host (POST /missions) instead of the single demo mission")
	fs.StringVar(&o.parkDir, "park-dir", "", "directory for parked mission checkpoints (-multi; empty = temporary)")
	fs.IntVar(&o.maxLive, "max-live", 64, "missions kept in memory at once (-multi)")
	fs.IntVar(&o.maxMissions, "max-missions", 4096, "registry capacity (-multi)")
	fs.IntVar(&o.tickBudget, "tick-budget", 1, "simulation ticks per mission per round (-multi)")
	fs.IntVar(&o.idleRounds, "idle-rounds", 0, "park unwatched missions after this many idle rounds (-multi; 0 = never)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.uavs < 1 {
		return o, fmt.Errorf("-uavs %d: the fleet needs at least one UAV", o.uavs)
	}
	if o.cells < 0 {
		return o, fmt.Errorf("-cells %d: must be >= 0 (0 = auto)", o.cells)
	}
	if o.multi && (o.spoofAt > 0 || o.blackbox != "") {
		return o, fmt.Errorf("-multi hosts declarative missions; -spoof and -blackbox only apply to the single demo mission")
	}
	if o.multi && (o.maxLive < 1 || o.maxMissions < 1 || o.tickBudget < 1 || o.idleRounds < 0) {
		return o, fmt.Errorf("-max-live, -max-missions and -tick-budget must be >= 1, -idle-rounds >= 0")
	}
	return o, nil
}

// defaultGCSOptions mirrors a flagless invocation — the seeded demo
// mission the tests build stations from.
func defaultGCSOptions() gcsOptions {
	o, err := parseArgs(nil)
	if err != nil {
		panic(err)
	}
	return o
}

// stationHorizonS is the demo mission document's horizon: the schema's
// maximum, since the station flies until it is stopped.
const stationHorizonS = 86400

// newGCS builds the seeded demo mission: u1..uN sweeping a 400 m
// square with ten survivors, fully instrumented.
func newGCS(o gcsOptions) (*gcs, error) {
	sc := sesame.ClassicScenario(o.seed, o.uavs, 10, 400)
	sc.HorizonS = stationHorizonS
	if o.spoofAt > 0 {
		sc.Timeline = append(sc.Timeline, sesame.GPSSpoofEvent(o.spoofAt, "u2"))
	}
	reg := sesame.NewObsvRegistry()
	reg.SetTrace(sesame.NewObsvTraceRing(4096))
	cfg := sesame.DefaultPlatformConfig()
	cfg.Observability = reg
	cfg.Cells = o.cells
	launched, err := sesame.LaunchScenario(sc, cfg)
	if err != nil {
		return nil, err
	}
	world, p := launched.World, launched.Platform
	g := &gcs{world: world, p: p, reg: reg}
	if o.blackbox != "" {
		rec, err := sesame.NewFlightRecorder(o.blackbox, o.seed, p.ConfigDigest(), 50, sesame.FlightRecorderOptions{})
		if err != nil {
			p.Close()
			return nil, err
		}
		p.SetRecorder(rec)
		g.rec, g.recDir = rec, o.blackbox
	}
	if err := g.publishFeed(); err != nil {
		p.Close()
		return nil, err
	}
	return g, nil
}

// publishFeed renders the current platform state into a fresh feedView
// and swaps it in. Callers must hold g.mu (or own the platform
// exclusively, as newGCS does).
func (g *gcs) publishFeed() error {
	status, err := json.Marshal(g.p.Status())
	if err != nil {
		return err
	}
	view := &feedView{status: append(status, '\n')}
	for _, ev := range g.p.Coordinator.History("") {
		view.events = append(view.events, feedEvent{
			Kind: ev.Kind.String(), UAV: ev.UAV, Time: ev.Time,
			Severity: ev.Severity, Summary: ev.Summary,
		})
	}
	g.feed.Store(view)
	return nil
}

// incidentWindow is the /blackbox response: the recording identity
// plus the most recent slice of the recorded stream — what an operator
// inspects right after an incident, while the mission is still flying.
type incidentWindow struct {
	Header        sesame.FlightRecordingHeader `json:"header"`
	Records       int                          `json:"records"`
	SnapshotTicks []uint64                     `json:"snapshot_ticks"`
	Ticks         []json.RawMessage            `json:"ticks"`
	Events        []json.RawMessage            `json:"events"`
	Faults        []json.RawMessage            `json:"faults"`
	Advice        []json.RawMessage            `json:"advice"`
}

// incidentWindowSize bounds each record class served by /blackbox.
const incidentWindowSize = 120

// keepTail appends raw (copied — the reader reuses its buffer) keeping
// only the newest incidentWindowSize entries.
func keepTail(tail []json.RawMessage, raw []byte) []json.RawMessage {
	cp := make(json.RawMessage, len(raw))
	copy(cp, raw)
	if len(tail) == incidentWindowSize {
		tail = append(tail[:0], tail[1:]...)
	}
	return append(tail, cp)
}

// readIncidentWindow decodes the recording's usable prefix and keeps
// the newest records of each class. A torn tail (the segment is being
// appended to while we read) simply ends the window.
func readIncidentWindow(dir string) (*incidentWindow, error) {
	r, err := sesame.OpenFlightRecording(dir)
	if err != nil {
		return nil, err
	}
	win := &incidentWindow{Header: r.Header()}
	for {
		rec, err := r.Next()
		if err != nil {
			break // io.EOF or torn tail: the window is what we have
		}
		win.Records++
		switch rec.Type {
		case sesame.FlightRecordTick:
			win.Ticks = keepTail(win.Ticks, rec.Payload)
		case sesame.FlightRecordEvent:
			win.Events = keepTail(win.Events, rec.Payload)
		case sesame.FlightRecordFault:
			win.Faults = keepTail(win.Faults, rec.Payload)
		case sesame.FlightRecordAdvice:
			win.Advice = keepTail(win.Advice, rec.Payload)
		case sesame.FlightRecordSnapshot:
			if s, err := sesame.DecodeFlightSnapshot(rec.Payload); err == nil {
				win.SnapshotTicks = append(win.SnapshotTicks, s.Tick)
			}
		}
	}
	return win, nil
}

// blackboxHandler serves the recent incident window. The sync runs
// under the tick mutex (the recorder is the platform's); the decode
// reads the segment files without blocking the simulation.
func (g *gcs) blackboxHandler(w http.ResponseWriter, _ *http.Request) {
	if g.rec == nil {
		http.Error(w, "no black box attached (run with -blackbox DIR)", http.StatusNotFound)
		return
	}
	g.mu.Lock()
	err := g.rec.Sync()
	g.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	win, err := readIncidentWindow(g.recDir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(win)
}

// tick advances the simulation by one step under the platform lock and
// publishes a fresh copy-on-write feed snapshot.
func (g *gcs) tick() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.p.Tick(); err != nil {
		return err
	}
	return g.publishFeed()
}

// serveStatus writes the published status document — the same bytes
// the platform's own handler would encode, without touching the tick
// mutex.
func (g *gcs) serveStatus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(g.feed.Load().status)
}

// serveEvents writes the EDDI history from the published feed,
// filtered by the optional ?uav= parameter. An empty history encodes
// as null, exactly like the platform handler's nil slice did.
func (g *gcs) serveEvents(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	uav := r.URL.Query().Get("uav")
	var out []feedEvent
	for _, ev := range g.feed.Load().events {
		if uav == "" || ev.UAV == uav {
			out = append(out, ev)
		}
	}
	_ = json.NewEncoder(w).Encode(out)
}

// handler merges the mission's JSON feed (served lock-free from the
// copy-on-write snapshot) with the UI page and the observability
// routes.
func (g *gcs) handler() http.Handler {
	debug := sesame.ObsvDebugMux(g.reg)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/ui":
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			_, _ = w.Write([]byte(uiPage))
		case r.URL.Path == "/blackbox":
			g.blackboxHandler(w, r)
		case r.URL.Path == "/metrics" || strings.HasPrefix(r.URL.Path, "/debug/"):
			debug.ServeHTTP(w, r)
		case r.URL.Path == "/events":
			g.serveEvents(w, r)
		default:
			g.serveStatus(w)
		}
	})
}

func main() {
	opts, err := parseArgs(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := serve(opts, os.Stdout, stop); err != nil {
		fail(err)
	}
}

// shutdownTimeout bounds how long a stopping station waits for open
// HTTP connections (including SSE streams) to drain.
const shutdownTimeout = 10 * time.Second

// serve binds the listen address and runs the station until the
// process is told to stop. A signal on stop triggers a graceful
// shutdown — simulation halted, state flushed to disk, connections
// drained — and serve returns nil so the process exits 0.
func serve(opts gcsOptions, out io.Writer, stop <-chan os.Signal) error {
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	if opts.multi {
		return serveMulti(opts, ln, out, stop)
	}
	return serveSingle(opts, ln, out, stop)
}

// serveSingle runs the classic one-mission station: a background
// goroutine ticks the simulation, HTTP serves the published feed. On
// stop the ticker halts, the black box (if any) is flushed and closed,
// and open connections drain.
func serveSingle(opts gcsOptions, ln net.Listener, out io.Writer, stop <-chan os.Signal) error {
	g, err := newGCS(opts)
	if err != nil {
		ln.Close()
		return err
	}
	defer g.p.Close()

	tickStop := make(chan struct{})
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		ticker := time.NewTicker(time.Duration(opts.tickMS) * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-tickStop:
				return
			case <-ticker.C:
				if err := g.tick(); err != nil {
					fmt.Fprintln(os.Stderr, "sesame-gcs: tick:", err)
					return
				}
			}
		}
	}()

	srv := &http.Server{Handler: g.handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(out, "sesame-gcs: serving fleet status on %s (/, /events, /ui, /metrics, /debug/pprof/%s)\n",
		ln.Addr(), map[bool]string{true: ", /blackbox"}[g.rec != nil])

	select {
	case err := <-errCh:
		close(tickStop)
		<-tickDone
		return err
	case <-stop:
	}
	close(tickStop)
	<-tickDone
	if g.rec != nil {
		if err := g.rec.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "sesame-gcs: black box close:", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	<-errCh // http.ErrServerClosed
	fmt.Fprintln(out, "sesame-gcs: stopped")
	return nil
}

// serveMulti runs the multi-tenant mission host: the registry API plus
// the observability routes, with a background round loop driving every
// live mission on the shared worker pool. On stop the round loop
// halts, every live mission is checkpointed to the park directory, SSE
// streams close, and connections drain — a later start with the same
// -park-dir recovers the fleet.
func serveMulti(opts gcsOptions, ln net.Listener, out io.Writer, stop <-chan os.Signal) error {
	reg := sesame.NewObsvRegistry()
	host, err := sesame.NewMissionHost(sesame.MissionHostConfig{
		ParkDir:       opts.parkDir,
		MaxLive:       opts.maxLive,
		MaxMissions:   opts.maxMissions,
		TickBudget:    opts.tickBudget,
		IdleRounds:    opts.idleRounds,
		Observability: reg,
	})
	if err != nil {
		ln.Close()
		return err
	}
	defer host.Close()

	debug := sesame.ObsvDebugMux(reg)
	api := host.Handler()
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" || strings.HasPrefix(r.URL.Path, "/debug/") {
			debug.ServeHTTP(w, r)
			return
		}
		api.ServeHTTP(w, r)
	})

	roundStop := make(chan struct{})
	roundDone := make(chan struct{})
	go func() {
		defer close(roundDone)
		ticker := time.NewTicker(time.Duration(opts.tickMS) * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-roundStop:
				return
			case <-ticker.C:
				host.Round()
			}
		}
	}()

	srv := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(out, "sesame-gcs: hosting missions on %s (/missions, /metrics, /debug/pprof/)\n", ln.Addr())

	select {
	case err := <-errCh:
		close(roundStop)
		<-roundDone
		return err
	case <-stop:
	}
	close(roundStop)
	<-roundDone
	// Park every live mission first: this also closes all subscriber
	// channels, so blocked SSE handlers return and Shutdown can drain.
	if err := host.Shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "sesame-gcs: mission host shutdown:", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	<-errCh // http.ErrServerClosed
	fmt.Fprintln(out, "sesame-gcs: stopped")
	return nil
}

// uiPage is the minimal Fig. 4 web GUI: fleet tracks on a canvas plus
// the per-UAV status boxes and the EDDI event feed, polling the JSON
// endpoints once per second.
const uiPage = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>SESAME multi-UAV GCS</title>
<style>
 body { font-family: monospace; background: #10141a; color: #dde; margin: 1em; }
 h1 { font-size: 1.1em; }
 #layout { display: flex; gap: 1em; }
 canvas { background: #1a222e; border: 1px solid #334; }
 .uav { border: 1px solid #345; padding: .4em .6em; margin-bottom: .5em; }
 .uav.compromised { border-color: #e33; }
 #events { max-height: 220px; overflow-y: auto; font-size: .85em; margin-top: 1em; }
 .sev1 { color: #f66; } .sevmid { color: #fc6; } .sevlow { color: #9c9; }
</style></head><body>
<h1>SESAME multi-UAV platform &mdash; live fleet (Fig. 4 view)</h1>
<div id="layout">
 <canvas id="map" width="560" height="560"></canvas>
 <div id="panel" style="min-width:320px"></div>
</div>
<div id="events"></div>
<script>
const tracks = {};
const colors = ["#e74c3c", "#e67e22", "#2ecc71", "#3498db", "#9b59b6"];
let colorOf = {};
function color(id) {
  if (!(id in colorOf)) colorOf[id] = colors[Object.keys(colorOf).length % colors.length];
  return colorOf[id];
}
async function refresh() {
  const s = await (await fetch("/")).json();
  const panel = document.getElementById("panel");
  panel.innerHTML = "<div>t=" + s.time.toFixed(0) + "s &mdash; " + s.mission_decision + "</div>";
  for (const u of s.uavs) {
    (tracks[u.id] = tracks[u.id] || []).push([u.position.Lng, u.position.Lat]);
    if (tracks[u.id].length > 2000) tracks[u.id].shift();
    const div = document.createElement("div");
    div.className = "uav" + (u.compromised ? " compromised" : "");
    div.innerHTML = "<b style='color:" + color(u.id) + "'>" + u.id + "</b> " + u.mode +
      "<br>batt " + u.battery_pct.toFixed(1) + "% | PoF " + u.pof.toFixed(3) +
      " | rel " + u.reliability + " | wps " + u.waypoints_remaining +
      (u.compromised ? "<br><b>COMPROMISED</b>" : "") +
      (u.collaborative_landing ? "<br>collaborative landing" : "");
    panel.appendChild(div);
  }
  draw(s);
  const evs = await (await fetch("/events")).json();
  const box = document.getElementById("events");
  box.innerHTML = (evs || []).slice(-40).reverse().map(e => {
    const cls = e.severity >= 0.9 ? "sev1" : (e.severity >= 0.5 ? "sevmid" : "sevlow");
    return "<div class='" + cls + "'>[" + e.time.toFixed(0) + "s] " + e.kind + " " + e.uav + ": " + e.summary + "</div>";
  }).join("");
}
function draw(s) {
  const c = document.getElementById("map"), g = c.getContext("2d");
  g.fillStyle = "#1a222e"; g.fillRect(0, 0, c.width, c.height);
  let min = [Infinity, Infinity], max = [-Infinity, -Infinity];
  for (const id in tracks) for (const p of tracks[id]) {
    min[0] = Math.min(min[0], p[0]); min[1] = Math.min(min[1], p[1]);
    max[0] = Math.max(max[0], p[0]); max[1] = Math.max(max[1], p[1]);
  }
  if (min[0] === Infinity) return;
  const pad = 30;
  const sx = x => pad + (x - min[0]) / Math.max(max[0] - min[0], 1e-9) * (c.width - 2 * pad);
  const sy = y => c.height - pad - (y - min[1]) / Math.max(max[1] - min[1], 1e-9) * (c.height - 2 * pad);
  for (const id in tracks) {
    g.strokeStyle = color(id); g.beginPath();
    tracks[id].forEach((p, i) => i ? g.lineTo(sx(p[0]), sy(p[1])) : g.moveTo(sx(p[0]), sy(p[1])));
    g.stroke();
    const last = tracks[id][tracks[id].length - 1];
    g.fillStyle = color(id);
    g.beginPath(); g.arc(sx(last[0]), sy(last[1]), 5, 0, 7); g.fill();
  }
}
setInterval(refresh, 1000); refresh();
</script></body></html>`

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sesame-gcs:", err)
	os.Exit(1)
}
