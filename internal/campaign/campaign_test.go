package campaign

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"sesame/internal/linksim"
)

// tinySpec is the shared test sweep: 2 seeds × 2 links × 2 faults = 8
// runs, short horizon so the whole matrix flies in a few seconds.
func tinySpec() Spec {
	return Spec{
		Name:      "tiny",
		SeedFrom:  1,
		SeedCount: 2,
		HorizonS:  240,
		AreaSideM: 200,
		Links: []LinkVariant{
			{Name: "nominal"},
			{Name: "lossy-10", Profile: linksim.Profile{DropProb: 0.10}},
		},
		Faults: []FaultVariant{
			{Name: "none"},
			{Name: "battery-60", BatteryAtS: 60},
		},
	}
}

// outputFiles are the merged result set whose bytes must not depend on
// kills, resumes, worker counts or scheduling.
var outputFiles = []string{RunsCSVName, RunsJSONLName, CurvesCSVName, ECDFCSVName, AggregatesName, ManifestName}

func runCampaign(t *testing.T, spec Spec, opts Options) *Summary {
	t.Helper()
	eng, err := New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func readOutputs(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range outputFiles {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		out[name] = data
	}
	return out
}

func TestExpandDeterministic(t *testing.T) {
	spec := tinySpec()
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	runs := spec.Expand()
	if len(runs) != spec.Total() || len(runs) != 8 {
		t.Fatalf("expanded %d runs, want 8", len(runs))
	}
	seen := map[string]bool{}
	for i, r := range runs {
		if r.Index != i {
			t.Fatalf("run %d has index %d", i, r.Index)
		}
		if seen[r.Key()] {
			t.Fatalf("duplicate run key %s", r.Key())
		}
		seen[r.Key()] = true
	}
	if runs[0].Key() != "s1-f3-c0-nominal-none" {
		t.Fatalf("unexpected first key %s", runs[0].Key())
	}
	other := tinySpec()
	other.Normalize()
	if other.Digest() != spec.Digest() {
		t.Fatal("same spec, different digest")
	}
	other.HorizonS++
	if other.Digest() == spec.Digest() {
		t.Fatal("edited spec kept its digest")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := tinySpec()
	bad.Faults = append(bad.Faults, FaultVariant{Name: "spoof-u9", SpoofAtS: 30, SpoofUAV: "u9"})
	bad.Normalize()
	if err := bad.Validate(); err == nil {
		t.Fatal("fault targeting u9 in a 3-UAV fleet validated")
	}
	dup := tinySpec()
	dup.Links = append(dup.Links, LinkVariant{Name: "nominal"})
	dup.Normalize()
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate link variant validated")
	}
}

// TestCampaignUninterrupted is the baseline: a full sweep completes,
// every run is journaled and the outputs exist.
func TestCampaignUninterrupted(t *testing.T) {
	dir := t.TempDir()
	sum := runCampaign(t, tinySpec(), Options{OutDir: dir, Workers: 2})
	if !sum.Complete || sum.Emitted != 8 || sum.Executed != 8 {
		t.Fatalf("summary %+v, want complete with 8/8", sum)
	}
	_, completed, _, err := readJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 8 {
		t.Fatalf("journal holds %d runs, want 8", len(completed))
	}
	readOutputs(t, dir) // must all exist
}

// TestCampaignResumeByteIdentical kills a sweep after K runs, resumes
// it, and requires the merged result set to be byte-identical to an
// uninterrupted sweep — for both the clean MaxRuns cut and a hard
// mid-flight context cancellation.
func TestCampaignResumeByteIdentical(t *testing.T) {
	refDir := t.TempDir()
	runCampaign(t, tinySpec(), Options{OutDir: refDir, Workers: 2})
	ref := readOutputs(t, refDir)

	t.Run("max-runs-cut", func(t *testing.T) {
		dir := t.TempDir()
		eng, err := New(tinySpec(), Options{OutDir: dir, Workers: 2, MaxRuns: 3})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sum.Complete || sum.Executed != 3 {
			t.Fatalf("partial summary %+v, want 3 executed, incomplete", sum)
		}
		sum = runCampaign(t, tinySpec(), Options{OutDir: dir, Workers: 2, Resume: true})
		if !sum.Complete || sum.Replayed != 3 || sum.Executed != 5 {
			t.Fatalf("resumed summary %+v, want complete with 3 replayed + 5 executed", sum)
		}
		compareOutputs(t, ref, readOutputs(t, dir))
	})

	t.Run("hard-cancel", func(t *testing.T) {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		// Runs after the first wait for the cancel before they fly, so
		// the cut lands mid-sweep however the workers are scheduled.
		eng, err := New(tinySpec(), Options{OutDir: dir, Workers: 2, SyncEvery: 1,
			OnResult: func(Result) { cancel() },
			RunFaultHook: func(index, _ int) error {
				if index > 0 {
					<-ctx.Done()
				}
				return nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := eng.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Complete {
			t.Fatalf("cancelled sweep reported complete: %+v", sum)
		}
		sum = runCampaign(t, tinySpec(), Options{OutDir: dir, Workers: 2, Resume: true})
		if !sum.Complete {
			t.Fatalf("resume did not complete: %+v", sum)
		}
		if sum.Replayed == 0 {
			t.Fatalf("resume replayed nothing: %+v", sum)
		}
		compareOutputs(t, ref, readOutputs(t, dir))
	})

	t.Run("torn-tail", func(t *testing.T) {
		dir := t.TempDir()
		eng, err := New(tinySpec(), Options{OutDir: dir, Workers: 2, MaxRuns: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Simulate a kill mid-append: garbage on the journal tail.
		f, err := os.OpenFile(filepath.Join(dir, JournalName), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0x17, 0xff, 0x03}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		sum := runCampaign(t, tinySpec(), Options{OutDir: dir, Workers: 2, Resume: true})
		if !sum.Complete {
			t.Fatalf("resume over torn tail did not complete: %+v", sum)
		}
		compareOutputs(t, ref, readOutputs(t, dir))
	})
}

func compareOutputs(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	for _, name := range outputFiles {
		if !reflect.DeepEqual(want[name], got[name]) {
			t.Errorf("%s differs between uninterrupted and resumed sweep (%d vs %d bytes)",
				name, len(want[name]), len(got[name]))
		}
	}
}

// TestResumeGuards: resuming needs the flag, and an edited spec must
// be refused.
func TestResumeGuards(t *testing.T) {
	dir := t.TempDir()
	runCampaign(t, tinySpec(), Options{OutDir: dir, Workers: 1, MaxRuns: 1})
	if _, err := New(tinySpec(), Options{OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	eng, _ := New(tinySpec(), Options{OutDir: dir})
	if _, err := eng.Run(context.Background()); err == nil {
		t.Fatal("re-running over an existing journal without Resume succeeded")
	}
	edited := tinySpec()
	edited.HorizonS = 300
	eng, err := New(edited, Options{OutDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err == nil {
		t.Fatal("resume with an edited spec succeeded")
	}
}

// TestRerunOneDigest is the triage determinism gate: every journaled
// run, re-executed standalone from its (seed, params) tuple, must
// reproduce the recorded digest bit for bit.
func TestRerunOneDigest(t *testing.T) {
	dir := t.TempDir()
	runCampaign(t, tinySpec(), Options{OutDir: dir, Workers: 2})
	_, completed, _, err := readJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for idx, want := range completed {
		got, err := RerunOne(tinySpec(), idx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest != want.Digest {
			t.Errorf("run %d (%s): standalone rerun digest %s != journaled %s",
				idx, want.Key, got.Digest[:16], want.Digest[:16])
		}
		if got.Completed != want.Completed || got.Ticks != want.Ticks {
			t.Errorf("run %d: rerun outcome diverged: %+v vs %+v", idx, got, want)
		}
	}
}

// naivePercentile is the insertion-sort helper the experiment files
// used to carry; Percentile must match it exactly.
func naivePercentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

func TestPercentileMatchesNaive(t *testing.T) {
	xs := []float64{5, 1, 4, 4, 8, 0, -3, 2.5, 9, 7, 7, 6}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 1} {
		if got, want := Percentile(xs, q), naivePercentile(xs, q); got != want {
			t.Errorf("Percentile(%v) = %v, naive = %v", q, got, want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("Percentile of empty input should be NaN")
	}
}

func TestECDF(t *testing.T) {
	pts := ECDF([]float64{3, 1, 3, 2})
	want := []ECDFPoint{{1, 0.25}, {2, 0.5}, {3, 1}}
	if !reflect.DeepEqual(pts, want) {
		t.Fatalf("ECDF = %v, want %v", pts, want)
	}
	if ECDF(nil) != nil {
		t.Fatal("ECDF of empty input should be nil")
	}
}

func TestReservoirDecimation(t *testing.T) {
	r := NewReservoir(8)
	for i := 0; i < 100; i++ {
		r.Add(float64(i))
	}
	if r.Count() != 100 {
		t.Fatalf("count %d, want 100", r.Count())
	}
	if len(r.Values()) > 8 {
		t.Fatalf("reservoir holds %d > cap 8", len(r.Values()))
	}
	// Deterministic: same stream, same survivors.
	r2 := NewReservoir(8)
	for i := 0; i < 100; i++ {
		r2.Add(float64(i))
	}
	if !reflect.DeepEqual(r.Values(), r2.Values()) {
		t.Fatal("same stream produced different reservoirs")
	}
	// Survivors are a systematic subsample: strictly increasing here.
	vs := append([]float64(nil), r.Values()...)
	if !sort.Float64sAreSorted(vs) {
		t.Fatalf("systematic subsample of an increasing stream is not sorted: %v", vs)
	}
	// Percentiles stay within the observed range.
	if p := r.Percentile(0.5); p < 0 || p > 99 {
		t.Fatalf("p50 %v outside observed range", p)
	}
}

func TestWriteCSVFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	err := WriteCSVFile(dir, "x.csv", []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "x.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "a,b\n1,2\n3,4\n" {
		t.Fatalf("unexpected CSV contents %q", data)
	}
}
