package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sesame"
)

func TestParseArgsDefaults(t *testing.T) {
	o, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !o.sesameOn || o.seed != 1 || o.persons != 10 || o.horizon != 1500 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	if o.uavs != 3 || o.cells != 0 {
		t.Fatalf("fleet flags must default to 3 UAVs with auto cells: %+v", o)
	}
	if o.record != "" || o.resume != "" || o.replay != "" || o.debugAddr != "" {
		t.Fatalf("black-box flags must default off: %+v", o)
	}
	if o.snapshotEvery != 50 || o.resumeTick != 0 {
		t.Fatalf("unexpected recorder defaults: %+v", o)
	}
}

func TestParseArgsFlags(t *testing.T) {
	o, err := parseArgs([]string{
		"-seed", "9", "-sesame=false", "-persons", "3",
		"-uavs", "128", "-cells", "4",
		"-record", "box", "-snapshot-every", "10",
		"-replay", "old", "-debug-addr", ":0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.seed != 9 || o.sesameOn || o.persons != 3 {
		t.Fatalf("scenario flags not applied: %+v", o)
	}
	if o.uavs != 128 || o.cells != 4 {
		t.Fatalf("fleet flags not applied: %+v", o)
	}
	if o.record != "box" || o.snapshotEvery != 10 || o.replay != "old" || o.debugAddr != ":0" {
		t.Fatalf("black-box flags not applied: %+v", o)
	}
}

func TestParseArgsRejects(t *testing.T) {
	if _, err := parseArgs([]string{"stray"}); err == nil {
		t.Error("stray positional argument must fail")
	}
	if _, err := parseArgs([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag must fail")
	}
	if _, err := parseArgs([]string{"-record", "box", "-resume", "box"}); err == nil {
		t.Error("recording into the directory being resumed must fail")
	}
	if _, err := parseArgs([]string{"-uavs", "0"}); err == nil {
		t.Error("an empty fleet must fail")
	}
	if _, err := parseArgs([]string{"-cells", "-1"}); err == nil {
		t.Error("a negative cell count must fail")
	}
}

// finalStatusJSON returns the last JSON status line a -json run wrote.
func finalStatusJSON(t *testing.T, out string) string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		if strings.HasPrefix(lines[i], "{") {
			return lines[i]
		}
	}
	t.Fatalf("no JSON status line in output:\n%s", out)
	return ""
}

// TestRecordResumeReplay drives the full black-box cycle through the
// CLI entry points on the §V fault cocktail (GPS spoofing at +30 s,
// battery collapse at +60 s): a recorded mission, resumed mid-flight
// on a fresh process, must print a final fleet status byte-identical
// to the uninterrupted run's; the recording must hold one tick record
// per tick flown and the injected faults; the replay dump must
// describe the recording.
func TestRecordResumeReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "box")
	base := options{
		sesameOn: true, seed: 7, uavs: 3, spoofAt: 30, spoofUAV: "u2",
		batteryFault: 60, persons: 5, horizon: 400, every: 1e9, asJSON: true,
		snapshotEvery: 25,
	}

	var plain bytes.Buffer
	if err := run(base, &plain); err != nil {
		t.Fatal(err)
	}
	want := finalStatusJSON(t, plain.String())

	recOpts := base
	recOpts.record = dir
	var recorded bytes.Buffer
	if err := run(recOpts, &recorded); err != nil {
		t.Fatal(err)
	}
	if got := finalStatusJSON(t, recorded.String()); got != want {
		t.Errorf("recording perturbed the mission:\n got %s\nwant %s", got, want)
	}
	checkRecording(t, dir, want)

	// Resume before the spoof fires (checkpoint at tick 25, spoof at
	// 30 s) and after it.
	for _, tick := range []uint64{25, 200} {
		resOpts := base
		resOpts.resume = dir
		resOpts.resumeTick = tick
		var resumed bytes.Buffer
		if err := run(resOpts, &resumed); err != nil {
			t.Fatal(err)
		}
		var from uint64
		banner := "resumed from " + dir + " at tick "
		_, after, _ := strings.Cut(resumed.String(), banner)
		if _, err := fmt.Sscanf(after, "%d", &from); err != nil || from == 0 || from > tick {
			t.Errorf("resume banner must name a checkpoint at or before tick %d (%v):\n%s", tick, err, resumed.String())
		}
		if got := finalStatusJSON(t, resumed.String()); got != want {
			t.Errorf("mission resumed at tick %d diverges:\n got %s\nwant %s", tick, got, want)
		}
	}

	var dump bytes.Buffer
	if err := run(options{replay: dir}, &dump); err != nil {
		t.Fatal(err)
	}
	for _, wantFrag := range []string{"seed 7", "snapshot every 25 ticks", "checkpoints at ticks", "last recorded tick"} {
		if !strings.Contains(dump.String(), wantFrag) {
			t.Errorf("replay dump missing %q:\n%s", wantFrag, dump.String())
		}
	}
}

// checkRecording reads the black box back through OpenFlightRecording:
// ticks 1..N recorded once each, the last at the final status's time,
// at least one checkpoint and at least one fault record.
func checkRecording(t *testing.T, dir, finalStatus string) {
	t.Helper()
	var final struct {
		Time float64 `json:"time"`
	}
	if err := json.Unmarshal([]byte(finalStatus), &final); err != nil {
		t.Fatal(err)
	}
	r, err := sesame.OpenFlightRecording(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ticks, faults, snapshots uint64
	var last struct {
		Tick uint64  `json:"tick"`
		Time float64 `json:"time"`
	}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch rec.Type {
		case sesame.FlightRecordTick:
			ticks++
			if err := json.Unmarshal(rec.Payload, &last); err != nil {
				t.Fatal(err)
			}
			if last.Tick != ticks {
				t.Fatalf("tick record %d carries tick %d", ticks, last.Tick)
			}
		case sesame.FlightRecordFault:
			faults++
		case sesame.FlightRecordSnapshot:
			snapshots++
		}
	}
	if ticks == 0 || last.Time != final.Time {
		t.Errorf("recorded %d ticks ending at t=%v; the mission ended at t=%v", ticks, last.Time, final.Time)
	}
	if snapshots == 0 {
		t.Error("recording holds no checkpoints")
	}
	if faults == 0 {
		t.Error("the fault cocktail left no fault records")
	}
}

// TestShardedMissionResume drives the black-box cycle on a sharded
// fleet: a -uavs 8 -cells 2 mission recorded and resumed mid-flight
// must end byte-identical to the uninterrupted sharded run.
func TestShardedMissionResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "box")
	base := options{
		sesameOn: true, seed: 5, uavs: 8, cells: 2, persons: 4,
		horizon: 200, every: 1e9, asJSON: true, snapshotEvery: 25,
	}

	var plain bytes.Buffer
	if err := run(base, &plain); err != nil {
		t.Fatal(err)
	}
	want := finalStatusJSON(t, plain.String())

	recOpts := base
	recOpts.record = dir
	if err := run(recOpts, io.Discard); err != nil {
		t.Fatal(err)
	}

	resOpts := base
	resOpts.resume = dir
	resOpts.resumeTick = 100
	var resumed bytes.Buffer
	if err := run(resOpts, &resumed); err != nil {
		t.Fatal(err)
	}
	if got := finalStatusJSON(t, resumed.String()); got != want {
		t.Errorf("resumed sharded mission diverges:\n got %s\nwant %s", got, want)
	}

	// The cell layout is part of the config digest: a recording flown
	// sharded must refuse to resume into an unsharded platform.
	wrongCells := base
	wrongCells.resume = dir
	wrongCells.cells = 1
	if err := run(wrongCells, io.Discard); err == nil || !strings.Contains(err.Error(), "config digest") {
		t.Errorf("resuming with different -cells must fail with a digest message, got %v", err)
	}
}

func TestResumeRejectsWrongScenario(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "box")
	base := options{
		sesameOn: true, seed: 3, uavs: 3, persons: 0, horizon: 120, every: 1e9,
		asJSON: true, snapshotEvery: 20, record: dir,
	}
	if err := run(base, io.Discard); err != nil {
		t.Fatal(err)
	}

	wrongSeed := base
	wrongSeed.record = ""
	wrongSeed.resume = dir
	wrongSeed.seed = 4
	if err := run(wrongSeed, io.Discard); err == nil || !strings.Contains(err.Error(), "-seed") {
		t.Errorf("wrong seed must fail with a seed message, got %v", err)
	}

	wrongCfg := base
	wrongCfg.record = ""
	wrongCfg.resume = dir
	wrongCfg.sesameOn = false
	if err := run(wrongCfg, io.Discard); err == nil || !strings.Contains(err.Error(), "config digest") {
		t.Errorf("wrong config must fail with a digest message, got %v", err)
	}
}

// TestDebugEndpoints exercises the -debug-addr surface: the bound
// listener must serve the Prometheus exposition and the pprof index.
func TestDebugEndpoints(t *testing.T) {
	reg := sesame.NewObsvRegistry()
	reg.Counter("sesame_platform_ticks_total", "").Inc()
	ln, err := startDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", ln.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "sesame_platform_ticks_total") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index unexpected:\n%s", body)
	}
}

// TestChaosMissionCLI drives the -chaos flag end to end: the armed
// plan must announce itself and report injections, two identical
// invocations must agree byte-for-byte on the final fleet status, and
// a recorded chaos mission resumed mid-flight (same plan passed again)
// must rejoin that status exactly.
func TestChaosMissionCLI(t *testing.T) {
	planPath := filepath.Join(t.TempDir(), "plan.json")
	planJSON := `{
  "name": "cli-smoke",
  "seed": 7,
  "monitors": [{"uav": "u1", "mode": "error", "window": {"from_s": 60, "to_s": 100}, "prob": 1}],
  "bus": [{"match": "/uav/", "window": {"from_s": 30, "to_s": 200}, "prob": 0.05}],
  "db": [{"window": {"to_s": 300}, "prob": 0.2}]
}`
	if err := os.WriteFile(planPath, []byte(planJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseArgs([]string{"-chaos", planPath}); err != nil {
		t.Fatalf("-chaos flag rejected: %v", err)
	}

	base := options{
		sesameOn: true, seed: 7, uavs: 3, spoofAt: 30, spoofUAV: "u2",
		persons: 5, horizon: 400, every: 1e9, asJSON: true,
		snapshotEvery: 25, chaosPath: planPath,
	}
	var first bytes.Buffer
	if err := run(base, &first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "chaos armed from") {
		t.Errorf("chaos banner missing:\n%s", first.String())
	}
	if !strings.Contains(first.String(), "chaos injections:") {
		t.Errorf("chaos stats line missing:\n%s", first.String())
	}
	want := finalStatusJSON(t, first.String())

	var second bytes.Buffer
	if err := run(base, &second); err != nil {
		t.Fatal(err)
	}
	if got := finalStatusJSON(t, second.String()); got != want {
		t.Errorf("chaos mission not reproducible:\n got %s\nwant %s", got, want)
	}

	dir := filepath.Join(t.TempDir(), "box")
	recOpts := base
	recOpts.record = dir
	var recorded bytes.Buffer
	if err := run(recOpts, &recorded); err != nil {
		t.Fatal(err)
	}
	if got := finalStatusJSON(t, recorded.String()); got != want {
		t.Errorf("recording perturbed the chaos mission:\n got %s\nwant %s", got, want)
	}

	resOpts := base
	resOpts.resume = dir
	resOpts.resumeTick = 200
	var resumed bytes.Buffer
	if err := run(resOpts, &resumed); err != nil {
		t.Fatal(err)
	}
	if got := finalStatusJSON(t, resumed.String()); got != want {
		t.Errorf("resumed chaos mission diverges:\n got %s\nwant %s", got, want)
	}
}

// TestChaosMissionRejectsBadPlan pins the loud-failure contract for
// misspelled or invalid plan files.
func TestChaosMissionRejectsBadPlan(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"typo.json":    `{"monitros": []}`,
		"invalid.json": `{"monitors": [{"mode": "explode", "prob": 1}]}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(options{sesameOn: true, uavs: 3, horizon: 10, every: 1e9, chaosPath: path}, io.Discard); err == nil {
			t.Errorf("%s: bad plan silently accepted", name)
		}
	}
	if err := run(options{sesameOn: true, uavs: 3, horizon: 10, every: 1e9,
		chaosPath: filepath.Join(dir, "missing.json")}, io.Discard); err == nil {
		t.Error("missing plan file silently accepted")
	}
}
