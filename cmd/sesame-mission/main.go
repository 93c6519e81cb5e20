// Command sesame-mission runs a full three-UAV SAR mission on the
// integrated platform — the Fig. 4 scenario — printing fleet status
// snapshots as the mission progresses. Optional fault flags reproduce
// the paper's scenarios in one run; the black-box flags record,
// resume and inspect missions through the flight recorder.
//
// Usage:
//
//	sesame-mission                         # nominal mission, SESAME on
//	sesame-mission -sesame=false           # reactive baseline
//	sesame-mission -battery-fault=60       # §V-A battery collapse at t=60
//	sesame-mission -spoof=30 -spoof-uav=u2 # §V-C spoofing attack at t=30
//	sesame-mission -uavs 128 -cells 0      # fleet-scale sharded run
//	sesame-mission -scenario examples/scenarios/maritime_sar.json
//	sesame-mission -scenario urban_canyon -seed 7  # generated archetype
//	sesame-mission -record box/            # fly with the black box on
//	sesame-mission -resume box/            # resume a crashed mission
//	sesame-mission -replay box/            # dump a recording, no sim
//	sesame-mission -debug-addr :6060       # /metrics + /debug/pprof/
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"sesame"
)

// options carries every flag; parseArgs fills it so tests can drive
// run without touching the process-global flag set.
type options struct {
	sesameOn      bool
	seed          int64
	uavs          int
	cells         int
	batteryFault  float64
	spoofAt       float64
	spoofUAV      string
	persons       int
	horizon       float64
	every         float64
	asJSON        bool
	record        string
	snapshotEvery int
	resume        string
	resumeTick    uint64
	replay        string
	debugAddr     string
	chaosPath     string
	scenario      string
}

// parseArgs parses argv (without the program name) into options.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("sesame-mission", flag.ContinueOnError)
	fs.BoolVar(&o.sesameOn, "sesame", true, "enable the SESAME EDDI stack")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.IntVar(&o.uavs, "uavs", 3, "fleet size (UAVs u1..uN)")
	fs.IntVar(&o.cells, "cells", 0, "scheduler cells for the sharded fleet pipeline (0 = auto: one cell per 64 UAVs, 1 = one cell, shared capture stream)")
	fs.Float64Var(&o.batteryFault, "battery-fault", 0, "inject a battery collapse on u1 this many seconds after the climb-out (0 = off)")
	fs.Float64Var(&o.spoofAt, "spoof", 0, "start a GPS spoofing attack this many seconds after the climb-out (0 = off)")
	fs.StringVar(&o.spoofUAV, "spoof-uav", "u2", "victim of the spoofing attack")
	fs.IntVar(&o.persons, "persons", 10, "persons scattered in the search area")
	fs.Float64Var(&o.horizon, "horizon", 1500, "maximum mission time in seconds")
	fs.Float64Var(&o.every, "status-every", 60, "status print interval in seconds")
	fs.BoolVar(&o.asJSON, "json", false, "print status snapshots as JSON")
	fs.StringVar(&o.record, "record", "", "record the mission into this black-box directory")
	fs.IntVar(&o.snapshotEvery, "snapshot-every", 50, "full checkpoint cadence in ticks while recording")
	fs.StringVar(&o.resume, "resume", "", "resume a crashed mission from this black-box directory (pass the same scenario flags)")
	fs.Uint64Var(&o.resumeTick, "resume-tick", 0, "resume from the newest checkpoint at or before this tick (0 = latest)")
	fs.StringVar(&o.replay, "replay", "", "dump this black-box recording and exit (no simulation)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics and /debug/pprof/ on this address")
	fs.StringVar(&o.chaosPath, "chaos", "", "inject faults from this chaos plan JSON (deterministic per plan seed; pass the same plan when resuming)")
	fs.StringVar(&o.scenario, "scenario", "", "fly a declarative scenario: a strict-JSON file (see examples/scenarios/) or a generator archetype (maritime_sar, urban_canyon, multi_site; seeded by -seed)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.scenario != "" {
		// A scenario declares its own fleet, faults, chaos and horizon;
		// combining it with the classic scenario flags would silently
		// ignore one side or the other.
		switch {
		case o.record != "" || o.resume != "" || o.replay != "":
			return o, errors.New("-scenario does not combine with the black-box flags")
		case o.chaosPath != "":
			return o, errors.New("-scenario does not combine with -chaos (embed the plan in the scenario's chaos field)")
		case o.batteryFault != 0 || o.spoofAt != 0:
			return o, errors.New("-scenario does not combine with -battery-fault/-spoof (declare them in the scenario timeline)")
		}
	}
	if o.record != "" && o.resume != "" && o.record == o.resume {
		return o, errors.New("-record and -resume must name different directories (appending to the recording being resumed would corrupt it)")
	}
	if o.uavs < 1 {
		return o, fmt.Errorf("-uavs %d: the fleet needs at least one UAV", o.uavs)
	}
	if o.cells < 0 {
		return o, fmt.Errorf("-cells %d: must be >= 0 (0 = auto)", o.cells)
	}
	return o, nil
}

func main() {
	opts, err := parseArgs(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sesame-mission:", err)
		os.Exit(1)
	}
}

// run executes one invocation: a replay dump, or a (possibly recorded
// and/or resumed) mission.
func run(opts options, out io.Writer) error {
	if opts.replay != "" {
		return replayDump(opts.replay, out)
	}
	if opts.scenario != "" {
		return runScenario(opts, out)
	}

	world, p, chaosLayer, err := buildMission(opts)
	if err != nil {
		return err
	}
	defer p.Close()
	if chaosLayer != nil {
		fmt.Fprintf(out, "chaos armed from %s (plan seed %d)\n", opts.chaosPath, chaosLayer.Plan().Seed)
	}

	if opts.debugAddr != "" {
		ln, err := startDebug(opts.debugAddr, p.Observability())
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(out, "debug endpoints on http://%s/metrics and /debug/pprof/\n", ln.Addr())
	}

	// The mission end and the fault schedule are fixed before any
	// restore, so a resumed run stops at exactly the tick, and injects
	// its faults at exactly the times, the uninterrupted run would have.
	end := world.Clock.Now() + opts.horizon
	if err := scheduleFaults(opts, world, out); err != nil {
		return err
	}

	if opts.resume != "" {
		tick, err := resumeFromBlackBox(opts, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "resumed from %s at tick %d (t=%.0f s)\n", opts.resume, tick, world.Clock.Now())
	}

	if opts.record != "" {
		recOpts := sesame.FlightRecorderOptions{}
		if chaosLayer != nil {
			recOpts = chaosLayer.RecorderOptions(recOpts)
		}
		rec, err := sesame.NewFlightRecorder(opts.record, opts.seed, p.ConfigDigest(),
			opts.snapshotEvery, recOpts)
		if err != nil {
			return err
		}
		defer func() { _ = rec.Close() }()
		p.SetRecorder(rec)
		fmt.Fprintf(out, "black box recording into %s (checkpoint every %d ticks)\n",
			opts.record, opts.snapshotEvery)
	}

	nextStatus := world.Clock.Now()
	for world.Clock.Now() < end {
		if err := p.Tick(); err != nil {
			return err
		}
		if world.Clock.Now() >= nextStatus {
			printStatus(out, p.Status(), opts.asJSON)
			nextStatus += opts.every
		}
		if done(p) {
			break
		}
	}
	printStatus(out, p.Status(), opts.asJSON)
	if av, err := p.Availability(); err == nil {
		fmt.Fprintf(out, "\nfleet availability: %.1f%%   mission decision: %s\n", av*100, p.Decision())
	}
	if chaosLayer != nil {
		st := chaosLayer.Stats()
		fmt.Fprintf(out, "chaos injections: %d total (%d monitor panics, %d monitor errors, %d latency spikes, %d bus, %d broker, %d db, %d recorder)\n",
			st.Total(), st.MonitorPanics, st.MonitorErrors, st.MonitorLatency,
			st.BusFailures, st.BrokerFailures, st.DBFailures, st.RecorderFaults)
	}
	return nil
}

// loadScenario resolves the -scenario value: an existing file is
// strict-parsed, anything else must name a generator archetype (seeded
// by -seed). A scenario file's own seed always wins over -seed.
func loadScenario(opts options) (*sesame.Scenario, error) {
	if data, err := os.ReadFile(opts.scenario); err == nil {
		return sesame.LoadScenario(data)
	}
	for _, arch := range sesame.ScenarioArchetypes() {
		if arch == opts.scenario {
			return sesame.GenerateScenario(opts.seed, arch)
		}
	}
	return nil, fmt.Errorf("-scenario %q: not a readable file and not an archetype (known: %v)",
		opts.scenario, sesame.ScenarioArchetypes())
}

// runScenario flies a declarative scenario end to end: the scenario
// supplies world, fleet, faults, links and horizon; the flags only
// choose the platform regime (-sesame, -cells) and reporting.
func runScenario(opts options, out io.Writer) error {
	sc, err := loadScenario(opts)
	if err != nil {
		return err
	}

	cfg := sesame.DefaultPlatformConfig()
	cfg.SESAME = opts.sesameOn
	cfg.Cells = opts.cells
	if opts.debugAddr != "" {
		reg := sesame.NewObsvRegistry()
		reg.SetTrace(sesame.NewObsvTraceRing(4096))
		cfg.Observability = reg
	}
	run, err := sesame.LaunchScenario(sc, cfg)
	if err != nil {
		return err
	}
	p, world := run.Platform, run.World
	defer p.Close()
	fmt.Fprintf(out, "scenario %s: %d UAVs, %d site(s), horizon %.0f s\n",
		sc.Name, len(sc.Fleet), len(sc.Sites), sc.HorizonS)
	if run.Chaos != nil {
		fmt.Fprintf(out, "chaos armed from scenario (plan seed %d)\n", run.Chaos.Plan().Seed)
	}

	if opts.debugAddr != "" {
		ln, err := startDebug(opts.debugAddr, p.Observability())
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(out, "debug endpoints on http://%s/metrics and /debug/pprof/\n", ln.Addr())
	}

	end := world.Clock.Now() + sc.HorizonS
	nextStatus := world.Clock.Now()
	for world.Clock.Now() < end {
		if err := p.Tick(); err != nil {
			return err
		}
		if world.Clock.Now() >= nextStatus {
			printStatus(out, p.Status(), opts.asJSON)
			nextStatus += opts.every
		}
		if done(p) {
			break
		}
	}
	printStatus(out, p.Status(), opts.asJSON)
	if av, err := p.Availability(); err == nil {
		fmt.Fprintf(out, "\nfleet availability: %.1f%%   mission decision: %s\n", av*100, p.Decision())
	}
	if run.Chaos != nil {
		st := run.Chaos.Stats()
		fmt.Fprintf(out, "chaos injections: %d total (%d monitor panics, %d monitor errors, %d latency spikes, %d bus, %d broker, %d db, %d recorder)\n",
			st.Total(), st.MonitorPanics, st.MonitorErrors, st.MonitorLatency,
			st.BusFailures, st.BrokerFailures, st.DBFailures, st.RecorderFaults)
	}
	return nil
}

// buildMission constructs the classic mission — world, fleet, scene,
// platform, mission start — exactly the same way every run of a given
// option set does, which is what makes black-box resume possible. A
// -chaos plan is part of the scenario: its injections are a pure
// function of (plan seed, sim time), so rebuilding with the same plan
// reproduces them.
func buildMission(opts options) (*sesame.World, *sesame.Platform, *sesame.ChaosLayer, error) {
	world, scene, area, err := sesame.ClassicMission{Seed: opts.seed, UAVs: opts.uavs, Persons: opts.persons}.Build()
	if err != nil {
		return nil, nil, nil, err
	}

	var chaosLayer *sesame.ChaosLayer
	if opts.chaosPath != "" {
		data, err := os.ReadFile(opts.chaosPath)
		if err != nil {
			return nil, nil, nil, err
		}
		plan, err := sesame.LoadChaosPlan(data)
		if err != nil {
			return nil, nil, nil, err
		}
		if chaosLayer, err = sesame.NewChaosLayer(world, plan); err != nil {
			return nil, nil, nil, err
		}
	}

	cfg := sesame.DefaultPlatformConfig()
	cfg.SESAME = opts.sesameOn
	cfg.Cells = opts.cells
	if chaosLayer != nil {
		if mb := chaosLayer.MonitorBuilder(); mb != nil {
			cfg.ExtraMonitors = append(cfg.ExtraMonitors, mb)
		}
	}
	if opts.debugAddr != "" {
		reg := sesame.NewObsvRegistry()
		reg.SetTrace(sesame.NewObsvTraceRing(4096))
		cfg.Observability = reg
	}
	p, err := sesame.NewPlatform(world, scene, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if chaosLayer != nil {
		sesame.ArmChaos(chaosLayer, world, p)
	}
	if err := p.StartMission(area); err != nil {
		p.Close()
		return nil, nil, nil, err
	}
	return world, p, chaosLayer, nil
}

// scheduleFaults injects the flag-selected fault scenarios at their
// offsets from the end of the climb-out (campaign classic runs and
// scenario timelines count from its start instead; see
// platform.ClassicMission). Resumed runs schedule them identically
// before restoring; injections already applied before the checkpoint
// are dropped by the restore.
func scheduleFaults(opts options, world *sesame.World, out io.Writer) error {
	if opts.batteryFault > 0 {
		at := world.Clock.Now() + opts.batteryFault
		if err := world.ScheduleFault(sesame.BatteryCollapseFault(at, "u1", 70, 40)); err != nil {
			return err
		}
		fmt.Fprintf(out, "scheduled: battery collapse on u1 at t=+%.0f s\n", opts.batteryFault)
	}
	if opts.spoofAt > 0 {
		at := world.Clock.Now() + opts.spoofAt
		if err := world.ScheduleFault(sesame.GPSSpoofFault(at, opts.spoofUAV, 135, 3)); err != nil {
			return err
		}
		fmt.Fprintf(out, "scheduled: GPS spoofing on %s at t=+%.0f s\n", opts.spoofUAV, opts.spoofAt)
	}
	return nil
}

// resumeFromBlackBox overlays the recording's newest usable checkpoint
// onto the freshly built scenario and returns the restored tick.
func resumeFromBlackBox(opts options, p *sesame.Platform) (uint64, error) {
	snap, hdr, err := sesame.LatestFlightSnapshot(opts.resume, opts.resumeTick)
	if err != nil {
		return 0, err
	}
	if hdr.Seed != opts.seed {
		return 0, fmt.Errorf("recording was flown with -seed %d, not %d", hdr.Seed, opts.seed)
	}
	if hdr.ConfigDigest != p.ConfigDigest() {
		return 0, fmt.Errorf("recording config digest %s does not match this platform (%s); pass the same scenario flags", hdr.ConfigDigest, p.ConfigDigest())
	}
	var ps sesame.PlatformCheckpoint
	if err := json.Unmarshal(snap.State, &ps); err != nil {
		return 0, fmt.Errorf("decode checkpoint: %w", err)
	}
	if err := p.RestoreCheckpoint(&ps); err != nil {
		return 0, err
	}
	return snap.Tick, nil
}

// replayDump prints a recording's header, integrity summary and the
// recorded tick stream's tail — the post-incident inspection view.
func replayDump(dir string, out io.Writer) error {
	r, err := sesame.OpenFlightRecording(dir)
	if err != nil {
		return err
	}
	hdr := r.Header()
	fmt.Fprintf(out, "recording %s\n", dir)
	fmt.Fprintf(out, "  format v%d  seed %d  snapshot every %d ticks\n", hdr.Version, hdr.Seed, hdr.SnapshotEvery)
	fmt.Fprintf(out, "  config %s\n", hdr.ConfigDigest)

	counts := map[string]int{}
	var snapshotTicks []uint64
	var lastTick json.RawMessage
	var readErr error
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// A torn tail (the recorded process died mid-write) ends
			// the usable prefix; everything before it is intact.
			readErr = err
			break
		}
		switch rec.Type {
		case sesame.FlightRecordTick:
			counts["tick"]++
			lastTick = append(lastTick[:0], rec.Payload...)
		case sesame.FlightRecordEvent:
			counts["event"]++
		case sesame.FlightRecordAdvice:
			counts["advice"]++
		case sesame.FlightRecordFault:
			counts["fault"]++
		case sesame.FlightRecordSnapshot:
			counts["snapshot"]++
			if s, err := sesame.DecodeFlightSnapshot(rec.Payload); err == nil {
				snapshotTicks = append(snapshotTicks, s.Tick)
			}
		case sesame.FlightRecordBus:
			counts["bus"]++
		}
	}
	fmt.Fprintf(out, "  records: %d ticks, %d events, %d advice, %d faults, %d bus, %d snapshots\n",
		counts["tick"], counts["event"], counts["advice"], counts["fault"], counts["bus"], counts["snapshot"])
	if len(snapshotTicks) > 0 {
		fmt.Fprintf(out, "  checkpoints at ticks %v\n", snapshotTicks)
	}
	if lastTick != nil {
		fmt.Fprintf(out, "  last recorded tick: %s\n", lastTick)
	}
	if readErr != nil {
		fmt.Fprintf(out, "  torn tail after last intact record: %v\n", readErr)
	}
	return nil
}

// startDebug serves the observability endpoints on addr, returning the
// bound listener so callers (and tests, via port 0) can find it.
func startDebug(addr string, reg *sesame.ObsvRegistry) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = http.Serve(ln, sesame.ObsvDebugMux(reg)) }()
	return ln, nil
}

// done reports whether the whole fleet is inactive.
func done(p *sesame.Platform) bool {
	for _, u := range p.Status().UAVs {
		switch u.Mode {
		case "mission", "return-to-base", "landing", "emergency-landing":
			return false
		}
	}
	return true
}

func printStatus(out io.Writer, s sesame.PlatformStatus, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(out)
		_ = enc.Encode(s)
		return
	}
	fmt.Fprintf(out, "t=%6.0f  decision=%s\n", s.Time, s.Decision)
	for _, u := range s.UAVs {
		fmt.Fprintf(out, "  %-4s mode=%-18s batt=%5.1f%% PoF=%.3f rel=%-6s wps=%3d",
			u.ID, u.Mode, u.BatteryPct, u.PoF, u.Reliability, u.Waypoints)
		if u.Compromised {
			fmt.Fprint(out, "  [COMPROMISED]")
		}
		if u.CollocLand {
			fmt.Fprint(out, "  [collaborative landing]")
		}
		fmt.Fprintln(out)
	}
}
