package platform

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"sesame/internal/geo"
)

// Database is the platform's database manager (paper §IV-A): an API
// for asynchronous data requests from UAVs and software clients that
// verifies requests originate inside the network before serving them.
type Database struct {
	mu        sync.Mutex
	telemetry map[string][]Record
	locations map[string]locEntry
	limit     int
	faultHook func(uav string) error
}

type locEntry struct {
	pos  geo.LatLng
	time float64
}

// Record is one stored telemetry datum.
type Record struct {
	Key   string
	Value string
	Time  float64
}

// ErrForbiddenOrigin is returned for requests from outside the
// platform network.
var ErrForbiddenOrigin = errors.New("platform: request origin outside the network")

// ErrUnavailable marks a transient database failure (the store is
// unreachable over a degraded link). Unlike validation errors it is
// retryable: the scheduler's bounded retry-with-backoff path re-offers
// such writes on later ticks instead of dropping them immediately.
var ErrUnavailable = errors.New("platform: database unavailable")

// NewDatabase returns a database keeping at most limit records per UAV
// (0 = unbounded).
func NewDatabase(limit int) *Database {
	return &Database{
		telemetry: make(map[string][]Record),
		locations: make(map[string]locEntry),
		limit:     limit,
	}
}

// checkOrigin admits loopback and RFC1918 private addresses — the
// "inside the network" rule of the paper's database manager. An origin
// is "ip" or "ip:port" ("[ipv6]:port"); zoned IPv6 addresses are
// refused. Every telemetry write comes through here, so a port-less
// origin parses without allocating.
func checkOrigin(origin string) error {
	ip, err := netip.ParseAddr(origin)
	if err != nil {
		ap, err := netip.ParseAddrPort(origin)
		if err != nil {
			return fmt.Errorf("platform: unparseable origin %q", origin)
		}
		ip = ap.Addr()
	}
	if ip.Zone() != "" {
		return fmt.Errorf("platform: unparseable origin %q", origin)
	}
	if ip = ip.Unmap(); ip.IsLoopback() || ip.IsPrivate() {
		return nil
	}
	return ErrForbiddenOrigin
}

// SetFaultHook installs (or, with nil, removes) a per-write fault
// injector consulted after request validation on PutRecord and
// PutLocation. It models the store's own data path failing — return
// ErrUnavailable to exercise the retry machinery.
func (d *Database) SetFaultHook(fn func(uav string) error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faultHook = fn
}

func (d *Database) faultFor(uav string) error {
	d.mu.Lock()
	fn := d.faultHook
	d.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(uav)
}

// PutRecord stores a telemetry record for the UAV; origin must be an
// in-network address ("ip" or "ip:port").
func (d *Database) PutRecord(origin, uav string, rec Record) error {
	if err := checkOrigin(origin); err != nil {
		return err
	}
	if uav == "" || rec.Key == "" {
		return errors.New("platform: record needs uav and key")
	}
	if err := d.faultFor(uav); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.telemetry[uav] = append(d.telemetry[uav], rec)
	if d.limit > 0 && len(d.telemetry[uav]) > d.limit {
		d.telemetry[uav] = d.telemetry[uav][len(d.telemetry[uav])-d.limit:]
	}
	return nil
}

// Records returns a copy of the UAV's stored records.
func (d *Database) Records(origin, uav string) ([]Record, error) {
	if err := checkOrigin(origin); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Record(nil), d.telemetry[uav]...), nil
}

// PutLocation stores the UAV's latest reported location.
func (d *Database) PutLocation(origin, uav string, pos geo.LatLng, t float64) error {
	if err := checkOrigin(origin); err != nil {
		return err
	}
	if uav == "" || !pos.Valid() {
		return errors.New("platform: invalid location report")
	}
	if err := d.faultFor(uav); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.locations[uav] = locEntry{pos: pos, time: t}
	return nil
}

// Location returns the UAV's last reported location.
func (d *Database) Location(origin, uav string) (geo.LatLng, float64, error) {
	if err := checkOrigin(origin); err != nil {
		return geo.LatLng{}, 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.locations[uav]
	if !ok {
		return geo.LatLng{}, 0, fmt.Errorf("platform: no location for %q", uav)
	}
	return e.pos, e.time, nil
}

// KnownUAVs lists UAVs with any stored data, sorted.
func (d *Database) KnownUAVs(origin string) ([]string, error) {
	if err := checkOrigin(origin); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	set := map[string]bool{}
	for u := range d.telemetry {
		set[u] = true
	}
	for u := range d.locations {
		set[u] = true
	}
	out := make([]string, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Strings(out)
	return out, nil
}
