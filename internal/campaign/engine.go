package campaign

// The batch engine: a bounded worker pool executes grid points with
// run-level parallelism while a single aggregator goroutine journals
// every completed run on arrival and emits output rows strictly in run
// order. A windowed dispatcher bounds how far execution may run ahead
// of emission, so the engine never buffers O(N) results no matter how
// skewed individual run times are.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Options tunes an engine.
type Options struct {
	// OutDir is the campaign directory: manifest, journal and every
	// output file land here.
	OutDir string
	// Workers bounds run-level parallelism (0 = GOMAXPROCS).
	Workers int
	// Resume continues a killed sweep from OutDir's journal; without it
	// an existing journal is an error (campaign outputs are evidence,
	// never silently overwritten).
	Resume bool
	// MaxRuns stops the sweep after that many runs have been executed
	// this invocation (0 = no limit). Journal-served runs don't count.
	// The partial sweep resumes later with -resume.
	MaxRuns int
	// SyncEvery is the journal fsync cadence in completed runs
	// (default 16): a kill loses at most this many finished runs.
	SyncEvery int
	// OnResult, when non-nil, observes every run result as it is
	// emitted in run order (progress reporting, tests).
	OnResult func(Result)
	// RunRetries enables run-level graceful degradation: a failing run
	// is re-executed up to RunRetries extra times, and one that
	// exhausts its budget is journaled as a quarantined row
	// (status=failed, attempts=N) instead of aborting the sweep. 0
	// keeps the legacy fail-fast behaviour: the first run error kills
	// the campaign.
	RunRetries int
	// RunFaultHook, when non-nil, is consulted before each execution
	// attempt of each run (chaos injection, tests). A non-nil error
	// counts as a failed attempt of that run. Deterministic hooks keyed
	// on (index, attempt) keep resumed sweeps byte-identical.
	RunFaultHook func(index, attempt int) error
}

// Summary reports one Run invocation.
type Summary struct {
	Total      int  // runs the spec expands to
	Replayed   int  // served from the journal
	Executed   int  // simulated this invocation
	Emitted    int  // rows written to the output files
	Complete   bool // every run emitted, aggregates written
	Elapsed    time.Duration
	RunsPerSec float64 // executed runs per wall second
}

// Engine executes one campaign sweep.
type Engine struct {
	spec Spec
	opts Options
	runs []Run
}

// New validates the spec and prepares the expansion.
func New(spec Spec, opts Options) (*Engine, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.OutDir == "" {
		return nil, errors.New("campaign: Options.OutDir is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 16
	}
	return &Engine{spec: spec, opts: opts, runs: spec.Expand()}, nil
}

// Spec returns the normalized spec the engine runs.
func (e *Engine) Spec() Spec { return e.spec }

// Total returns the number of runs the sweep expands to.
func (e *Engine) Total() int { return len(e.runs) }

// Workers returns the resolved worker-pool size.
func (e *Engine) Workers() int { return e.opts.Workers }

// item pairs a result with its provenance for the aggregator.
type item struct {
	res      Result
	replayed bool // served from the journal, don't re-journal
}

// runWithRetry executes one grid point under the run-level retry
// policy. Without RunRetries the first error propagates (fail-fast,
// the pre-retry contract). With it, each failure burns one attempt;
// a run that exhausts 1+RunRetries attempts is reduced to a
// quarantined Result (status=failed) that flows through journal,
// outputs and resume like any other row, so one poisoned grid point
// cannot sink a million-run sweep. Journaled failed rows are replayed
// as-is on resume — they are never retried again, which is what keeps
// kill/resume byte-identical.
func (e *Engine) runWithRetry(run Run, sc *scratch) (Result, error) {
	attempts := 0
	var lastErr error
	for attempts <= e.opts.RunRetries {
		attempts++
		var err error
		if hook := e.opts.RunFaultHook; hook != nil {
			err = hook(run.Index, attempts)
		}
		var res Result
		if err == nil {
			res, err = executeRun(&e.spec, run, sc)
		}
		if err == nil {
			if attempts > 1 {
				res.Attempts = attempts
			}
			return res, nil
		}
		lastErr = err
		if e.opts.RunRetries <= 0 {
			return Result{}, err
		}
	}
	return Result{
		Index: run.Index, Key: run.Key(), Seed: run.Seed,
		Fleet: run.Fleet, Cells: run.Cells,
		Link: run.Link.Name, Fault: run.Fault.Name,
		Scenario:      run.Scenario,
		SafetyDetectS: -1, SecurityDetectS: -1,
		Status: "failed", Attempts: attempts, Error: lastErr.Error(),
	}, nil
}

// Run executes the sweep. Cancelling ctx stops dispatching new runs;
// in-flight runs finish and are journaled, so a later Resume invocation
// picks up exactly where the kill landed. The output files are only
// finalized (risk curves, ECDFs, aggregates) when every run emitted.
func (e *Engine) Run(ctx context.Context) (*Summary, error) {
	startWall := time.Now()
	manifest := Manifest{
		Name:       e.spec.Name,
		SpecDigest: e.spec.Digest(),
		TotalRuns:  len(e.runs),
		Spec:       e.spec,
	}

	// Journal: fresh, or replayed for resume.
	var (
		jnl       *journal
		completed map[int]Result
	)
	prev, prevCompleted, intactLen, err := readJournal(e.opts.OutDir)
	switch {
	case err == nil:
		if !e.opts.Resume {
			return nil, fmt.Errorf("campaign: %s already holds a journal; pass Resume to continue it", e.opts.OutDir)
		}
		if prev.SpecDigest != manifest.SpecDigest {
			return nil, fmt.Errorf("campaign: journal in %s belongs to spec %s, not %s (edit the spec and you start a new campaign)",
				e.opts.OutDir, prev.SpecDigest, manifest.SpecDigest)
		}
		completed = prevCompleted
		if jnl, err = appendJournal(e.opts.OutDir, intactLen, e.opts.SyncEvery); err != nil {
			return nil, err
		}
	case errors.Is(err, errNoJournal):
		if jnl, err = createJournal(e.opts.OutDir, manifest, e.opts.SyncEvery); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	defer jnl.close()

	if err := writeManifest(e.opts.OutDir, manifest); err != nil {
		return nil, err
	}

	agg, err := newAggregator(e.opts.OutDir, &e.spec)
	if err != nil {
		return nil, err
	}

	// The emission window: the dispatcher acquires one slot per run, the
	// aggregator releases it when the run's row is emitted in order.
	window := 4 * e.opts.Workers
	if window < 64 {
		window = 64
	}
	sem := make(chan struct{}, window)

	jobs := make(chan Run)
	results := make(chan item, e.opts.Workers)

	var (
		firstErr error
		errOnce  sync.Once
	)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err; cancel() })
	}

	// Workers: each owns a scratch reused across its runs.
	var workWG sync.WaitGroup
	for w := 0; w < e.opts.Workers; w++ {
		workWG.Add(1)
		go func() {
			defer workWG.Done()
			sc := newScratch()
			for run := range jobs {
				res, err := e.runWithRetry(run, sc)
				if err != nil {
					fail(fmt.Errorf("run %s: %w", run.Key(), err))
					return
				}
				results <- item{res: res}
			}
		}()
	}

	// Aggregator: journal on arrival (any order), emit in run order.
	summary := &Summary{Total: len(e.runs)}
	var aggWG sync.WaitGroup
	var aggErr error
	pending := map[int]Result{}
	next := 0
	aggWG.Add(1)
	go func() {
		defer aggWG.Done()
		for it := range results {
			if !it.replayed {
				if err := jnl.record(it.res); err != nil {
					fail(err)
					continue
				}
			}
			pending[it.res.Index] = it.res
			for {
				res, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				if aggErr == nil {
					aggErr = agg.emit(res)
					if aggErr != nil {
						fail(aggErr)
					}
				}
				if e.opts.OnResult != nil {
					e.opts.OnResult(res)
				}
				summary.Emitted++
				next++
				<-sem
			}
		}
	}()

	// Dispatcher: strictly in expansion order, bounded by the window.
	executed := 0
dispatch:
	for _, run := range e.runs {
		select {
		case sem <- struct{}{}:
		case <-runCtx.Done():
			break dispatch
		}
		if res, ok := completed[run.Index]; ok {
			if res.Key != run.Key() {
				fail(fmt.Errorf("campaign: journaled run %d has key %s, expansion says %s", run.Index, res.Key, run.Key()))
				break dispatch
			}
			summary.Replayed++
			results <- item{res: res, replayed: true}
			continue
		}
		if e.opts.MaxRuns > 0 && executed >= e.opts.MaxRuns {
			break dispatch
		}
		// A cancelled sweep dispatches nothing more, even when a worker
		// is free: the select below picks among ready cases at random.
		if runCtx.Err() != nil {
			break dispatch
		}
		select {
		case jobs <- run:
			executed++
		case <-runCtx.Done():
			break dispatch
		}
	}
	close(jobs)
	workWG.Wait()
	close(results)
	aggWG.Wait()

	summary.Executed = executed
	summary.Complete = summary.Emitted == len(e.runs) && firstErr == nil
	closeErr := agg.close(summary.Complete)
	if err := jnl.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if closeErr != nil && firstErr == nil {
		firstErr = closeErr
	}
	summary.Elapsed = time.Since(startWall)
	if s := summary.Elapsed.Seconds(); s > 0 {
		summary.RunsPerSec = float64(summary.Executed) / s
	}
	if firstErr != nil {
		return summary, firstErr
	}
	return summary, nil
}
