package serve

import (
	"sync/atomic"
	"time"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/internal/obsv"
)

// govSoftWatermark is the fraction of the high-water mark above which the
// governor starts enforcing per-tenant fair shares in addition to the global
// ceiling.
const govSoftWatermark = 0.7

// govRetryAfter is the backoff hint attached to governor sheds: memory
// pressure drains at request-completion granularity, so a flat second is an
// honest "come back after some requests finish" signal.
const govRetryAfter = time.Second

// memGovernor is the server-wide live-memory admission controller. It keeps
// no ledger of its own: the server's root context carries the high-water mark
// as its budget, every tenant context and request context is budgeted beneath
// it, and the §IV budget rollup makes the root's and each tenant's
// MemoryUsed a single-atomic-load aggregate of their in-flight reservations.
// Admission projects that live figure plus the tenant's EWMA of the op's
// recent peaks; projections past the high-water mark are rejected before any
// allocation happens (429 + Retry-After) instead of failing mid-flight with
// 507. Above the soft watermark each tenant is additionally held to its fair
// share of the whole budget, so one hungry tenant cannot starve the rest.
type memGovernor struct {
	highWater int64
	root      *grb.Context // nil when the library was not initialised
	active    atomic.Int64 // tenants with a request in flight

	// readings, when set, replaces the root's and the tenant's live bytes,
	// so a test can pin the admission arithmetic without staging real
	// allocations.
	readings func(*tenant) (live, mine int64)
}

// governorSnapshot is the state exposed in shed bodies.
type governorSnapshot struct {
	LiveBytes     int64 `json:"live_bytes"`
	HighWater     int64 `json:"high_water"`
	ActiveTenants int   `json:"active_tenants"`
}

// live returns the server-wide in-flight reservation aggregate.
func (g *memGovernor) live() int64 { return g.root.MemoryUsed() }

// admit decides whether one request of tn for op may enter. When it may
// not, reason is "governor" (global projection past high water) or
// "fairshare" (tenant over its slice under pressure).
func (g *memGovernor) admit(tn *tenant, op string) (ok bool, reason string) {
	if g == nil {
		return true, ""
	}
	live, mine := g.live(), tn.ctx.MemoryUsed()
	if g.readings != nil {
		live, mine = g.readings(tn)
	}
	obsv.ServeSet("govern.live_bytes", live)
	est := tn.estimate(op)
	if live+est > g.highWater {
		obsv.ServeAdd("govern.sheds", 1)
		return false, "governor"
	}
	// The requesting tenant counts as active even before its first
	// admission, so a newcomer gets a slice too.
	active := g.active.Load()
	if tn.running.Load() == 0 {
		active++
	}
	if float64(live) > govSoftWatermark*float64(g.highWater) && mine+est > g.highWater/active {
		obsv.ServeAdd("govern.fair_sheds", 1)
		return false, "fairshare"
	}
	return true, ""
}

// snapshot returns the governor's instantaneous state for shed bodies.
func (g *memGovernor) snapshot() *governorSnapshot {
	if g == nil {
		return nil
	}
	return &governorSnapshot{LiveBytes: g.live(), HighWater: g.highWater, ActiveTenants: int(g.active.Load())}
}
