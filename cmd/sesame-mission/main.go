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
//	sesame-mission -battery-fault=60       # §V-A battery collapse 60 s after launch
//	sesame-mission -spoof=30 -spoof-uav=u2 # §V-C spoofing attack 30 s after launch
//	sesame-mission -uavs 128 -cells 0      # fleet-scale sharded run
//	sesame-mission -scenario examples/scenarios/maritime_sar.json
//	sesame-mission -scenario urban_canyon -seed 7  # generated archetype
//	sesame-mission -record box/            # fly with the black box on
//	sesame-mission -resume box/            # resume a crashed mission
//	sesame-mission -scenario f.json -record box/  # record a scenario flight
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
	fs.IntVar(&o.cells, "cells", 0, "scheduler cells for the fleet pipeline, a speed setting that never changes results (0 = auto: one cell per 64 UAVs, 1 = one cell, run inline)")
	fs.Float64Var(&o.batteryFault, "battery-fault", 0, "inject a battery collapse on u1 this many seconds after launch (0 = off)")
	fs.Float64Var(&o.spoofAt, "spoof", 0, "start a GPS spoofing attack this many seconds after launch (0 = off)")
	fs.StringVar(&o.spoofUAV, "spoof-uav", "u2", "victim of the spoofing attack")
	fs.IntVar(&o.persons, "persons", 10, "persons scattered in the search area")
	fs.Float64Var(&o.horizon, "horizon", 1500, "maximum mission time in seconds")
	fs.Float64Var(&o.every, "status-every", 60, "status print interval in seconds")
	fs.BoolVar(&o.asJSON, "json", false, "print status snapshots as JSON")
	fs.StringVar(&o.record, "record", "", "record the mission into this black-box directory")
	fs.IntVar(&o.snapshotEvery, "snapshot-every", 50, "full checkpoint cadence in ticks while recording")
	fs.StringVar(&o.resume, "resume", "", "resume a crashed mission from this black-box directory (pass the same mission flags)")
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
		// combining it with the classic mission's fault and chaos flags
		// would silently ignore one side or the other.
		switch {
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
	sc, err := missionScenario(opts)
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
	// The mission end and the fault timeline are fixed at launch, before
	// any restore, so a resumed run stops at exactly the tick, and
	// injects its faults at exactly the times, the uninterrupted run
	// would have; injections already applied before the checkpoint are
	// dropped by the restore.
	launched, err := sesame.LaunchScenario(sc, cfg)
	if err != nil {
		return err
	}
	p, world := launched.Platform, launched.World
	defer p.Close()
	end := world.Clock.Now() + sc.HorizonS
	fmt.Fprintf(out, "mission %s: %d UAVs, %d site(s), horizon %.0f s\n",
		sc.Name, len(sc.Fleet), len(sc.Sites), sc.HorizonS)
	for _, ev := range sc.Timeline {
		fmt.Fprintf(out, "scheduled: %s on %s at t=+%.0f s after launch\n", ev.Kind, ev.UAV, ev.AtS)
	}
	if launched.Chaos != nil {
		from := opts.chaosPath
		if from == "" {
			from = "scenario"
		}
		fmt.Fprintf(out, "chaos armed from %s (plan seed %d)\n", from, launched.Chaos.Plan().Seed)
	}

	if opts.debugAddr != "" {
		ln, err := startDebug(opts.debugAddr, p.Observability())
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(out, "debug endpoints on http://%s/metrics and /debug/pprof/\n", ln.Addr())
	}

	if opts.resume != "" {
		tick, err := resumeFromBlackBox(opts.resume, opts.resumeTick, sc.Seed, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "resumed from %s at tick %d (t=%.0f s)\n", opts.resume, tick, world.Clock.Now())
	}

	if opts.record != "" {
		recOpts := sesame.FlightRecorderOptions{}
		if launched.Chaos != nil {
			recOpts = launched.Chaos.RecorderOptions(recOpts)
		}
		rec, err := sesame.NewFlightRecorder(opts.record, sc.Seed, p.ConfigDigest(),
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
	if launched.Chaos != nil {
		st := launched.Chaos.Stats()
		fmt.Fprintf(out, "chaos injections: %d total (%d monitor panics, %d monitor errors, %d latency spikes, %d bus, %d broker, %d db, %d recorder)\n",
			st.Total(), st.MonitorPanics, st.MonitorErrors, st.MonitorLatency,
			st.BusFailures, st.BrokerFailures, st.DBFailures, st.RecorderFaults)
	}
	return nil
}

// missionScenario resolves the mission document. -scenario names a
// strict-JSON file (whose own seed wins over -seed) or a generator
// archetype seeded by -seed. Without it the flags describe the classic
// §V mission: -uavs, -persons and -horizon size it, -battery-fault and
// -spoof put the paper's faults on its timeline, and -chaos embeds a
// plan. The same flags rebuild the same document, which is what makes
// black-box resume possible.
func missionScenario(opts options) (*sesame.Scenario, error) {
	if opts.scenario != "" {
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
	sc := sesame.ClassicScenario(opts.seed, opts.uavs, opts.persons, 400)
	sc.HorizonS = opts.horizon
	if opts.batteryFault > 0 {
		sc.Timeline = append(sc.Timeline, sesame.BatteryCollapseEvent(opts.batteryFault, "u1"))
	}
	if opts.spoofAt > 0 {
		sc.Timeline = append(sc.Timeline, sesame.GPSSpoofEvent(opts.spoofAt, opts.spoofUAV))
	}
	if opts.chaosPath != "" {
		data, err := os.ReadFile(opts.chaosPath)
		if err != nil {
			return nil, err
		}
		plan, err := sesame.LoadChaosPlan(data)
		if err != nil {
			return nil, err
		}
		sc.Chaos = &plan
	}
	return sc, nil
}

// resumeFromBlackBox overlays the recording's newest usable checkpoint
// at or before maxTick onto the freshly launched mission, whose
// document has the given seed, and returns the restored tick.
func resumeFromBlackBox(dir string, maxTick uint64, seed int64, p *sesame.Platform) (uint64, error) {
	snap, hdr, err := sesame.LatestFlightSnapshot(dir, maxTick)
	if err != nil {
		return 0, err
	}
	if hdr.Seed != seed {
		return 0, fmt.Errorf("recording was flown with seed %d, not %d (pass the same -seed or scenario)", hdr.Seed, seed)
	}
	if hdr.ConfigDigest != p.ConfigDigest() {
		return 0, fmt.Errorf("recording config digest %s does not match this platform (%s); pass the same mission flags", hdr.ConfigDigest, p.ConfigDigest())
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
