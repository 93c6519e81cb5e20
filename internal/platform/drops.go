package platform

import "sync/atomic"

// The §IV-A data path used to discard failures from database writes,
// event emission, availability marks and flight commands silently.
// dropCounters makes every such drop observable: each call site routes
// its error through count*, and Status surfaces the totals so a ground
// operator (or a test) can see data loss instead of guessing.

// DropCounters is the externally visible snapshot of data-path drops.
type DropCounters struct {
	// Database counts rejected database writes (locations, telemetry).
	Database uint64 `json:"database"`
	// Events counts EDDI events the coordinator refused.
	Events uint64 `json:"events"`
	// Availability counts failed availability-tracker marks.
	Availability uint64 `json:"availability"`
	// Commands counts rejected flight commands (altitude changes,
	// redeployments, redispatches).
	Commands uint64 `json:"commands"`
	// Mission counts failed mission-management operations
	// (redistribution, mission-level decisions).
	Mission uint64 `json:"mission"`
	// Perception counts dropped perception work (failed captures,
	// window pushes, evaluations, risk assessments).
	Perception uint64 `json:"perception"`
	// Monitors counts monitor-chain evaluations lost to a panicking
	// runtime monitor (the UAV's tick result is replaced by a fail-safe
	// Halt).
	Monitors uint64 `json:"monitors"`
}

// Total sums all drop categories.
func (c DropCounters) Total() uint64 {
	return c.Database + c.Events + c.Availability + c.Commands + c.Mission + c.Perception + c.Monitors
}

// RetryCounters is the externally visible snapshot of the database
// retry-with-backoff machinery.
type RetryCounters struct {
	// Scheduled counts writes that failed transiently and entered the
	// retry queue.
	Scheduled uint64 `json:"scheduled"`
	// Succeeded counts queued writes that eventually landed.
	Succeeded uint64 `json:"succeeded"`
	// Abandoned counts queued writes dropped after exhausting their
	// attempts (these also appear in DropCounters.Database).
	Abandoned uint64 `json:"abandoned"`
}

// dropCounters is the internal atomic store. Monitors increment it
// from the concurrent observe phase, so all fields are atomics.
type dropCounters struct {
	database     atomic.Uint64
	events       atomic.Uint64
	availability atomic.Uint64
	commands     atomic.Uint64
	mission      atomic.Uint64
	perception   atomic.Uint64
	monitors     atomic.Uint64
}

// snapshot returns a point-in-time copy for Status.
func (c *dropCounters) snapshot() DropCounters {
	return DropCounters{
		Database:     c.database.Load(),
		Events:       c.events.Load(),
		Availability: c.availability.Load(),
		Commands:     c.commands.Load(),
		Mission:      c.mission.Load(),
		Perception:   c.perception.Load(),
		Monitors:     c.monitors.Load(),
	}
}

// retryCounters is the internal atomic store behind RetryCounters;
// retries are enqueued from the concurrent observe phase.
type retryCounters struct {
	scheduled atomic.Uint64
	succeeded atomic.Uint64
	abandoned atomic.Uint64
}

func (c *retryCounters) snapshot() RetryCounters {
	return RetryCounters{
		Scheduled: c.scheduled.Load(),
		Succeeded: c.succeeded.Load(),
		Abandoned: c.abandoned.Load(),
	}
}

// countIn increments ctr when err is non-nil and reports whether the
// operation succeeded.
func countIn(ctr *atomic.Uint64, err error) bool {
	if err != nil {
		ctr.Add(1)
		return false
	}
	return true
}

// Drops returns the platform's data-path drop counters.
func (p *Platform) Drops() DropCounters { return p.drops.snapshot() }

// DBRetries returns the database retry-with-backoff counters.
func (p *Platform) DBRetries() RetryCounters { return p.retries.snapshot() }
