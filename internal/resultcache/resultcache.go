// Package resultcache is the content-addressed result cache in front of the
// simulation job service. The simulator is deterministic by construction
// (the golden tests byte-diff -j1 vs -j8 and HTTP vs CLI), so a canonical
// job fingerprint fully determines the rendered result bytes — which makes
// repeat submissions a map lookup instead of milliseconds of simulation.
//
// The package splits three concerns, in the modecache idiom
// (store / policy / metrics):
//
//   - MemoryStore (store.go) holds the fingerprint-keyed entries
//     (Get/Put/Purge) in a bounded in-process LRU.
//   - policy (policy.go) decides what the store evicts and when:
//     recency order plus entry- and byte-capacity bounds.
//   - Cache (this file) fronts the store with admission bookkeeping — the
//     hit/miss/coalesced/eviction/bytes accounting the service exports on
//     /metrics and /v1/cache/stats — and with singleflight admission
//     (flight.go): concurrent submissions of one fingerprint collapse onto
//     a single in-flight simulation, so a thundering herd of N identical
//     sweeps costs exactly one run.
package resultcache

import (
	"encoding/json"
	"sync/atomic"

	"timecache/internal/stats"
)

// Entry is one cached, fully rendered job result. Entries are immutable
// once published: the service hands the same Entry (and Table) to every
// hit, so nothing may write through these pointers after Put.
type Entry struct {
	// Key is the content address (the canonical spec fingerprint).
	Key string
	// CSV and Markdown are the rendered result bytes, byte-identical to a
	// cold run by construction.
	CSV      []byte
	Markdown []byte
	// Table is the structured result, for renderings that embed per-job
	// fields (the JSON result format carries the job id).
	Table *stats.Table
	// Meta is opaque producer metadata replayed to every hit — the job
	// service stores the producing run's resource snapshot and progress
	// totals here.
	Meta json.RawMessage
}

// Size is the entry's accounted footprint in bytes: the rendered payloads
// plus key and metadata, with a small fixed overhead standing in for the
// structured table (whose cells the CSV already mirrors). The byte bound is
// an accounting bound, not an allocator measurement.
func (e *Entry) Size() int64 {
	const entryOverhead = 256
	return int64(len(e.Key) + len(e.CSV) + len(e.Markdown) + len(e.Meta) + entryOverhead)
}

// Stats is a point-in-time snapshot of the cache's accounting, served on
// GET /v1/cache/stats and folded into /metrics.
type Stats struct {
	// Hits are admissions served straight from the store.
	Hits uint64 `json:"hits"`
	// Misses are admissions that led a new simulation.
	Misses uint64 `json:"misses"`
	// Coalesced are admissions that attached to another submission's
	// in-flight simulation (singleflight followers).
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts entries the store displaced to stay within its
	// bounds.
	Evictions uint64 `json:"evictions"`
	// Entries and Bytes are the store's current footprint.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// CapEntries and CapBytes echo the configured bounds (0 = unbounded).
	CapEntries int   `json:"capacity_entries"`
	CapBytes   int64 `json:"capacity_bytes"`
	// InFlight is the number of fingerprints currently being simulated.
	InFlight int `json:"in_flight"`
}

// Cache combines the store, the admission singleflight group, and the
// metrics. All methods are safe for concurrent use.
type Cache struct {
	store *MemoryStore
	group *Group

	capEntries int
	capBytes   int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
}

// Option configures a Cache.
type Option func(*config)

type config struct {
	maxEntries int
	maxBytes   int64
}

// WithMaxEntries bounds the store's entry count (0 = unbounded).
func WithMaxEntries(n int) Option { return func(c *config) { c.maxEntries = n } }

// WithMaxBytes bounds the store's accounted bytes (0 = unbounded).
func WithMaxBytes(n int64) Option { return func(c *config) { c.maxBytes = n } }

// New builds a cache. With no options the store is an unbounded in-memory
// LRU; production callers set WithMaxEntries/WithMaxBytes (the
// timecache-serve defaults are 512 entries / 256 MiB).
func New(opts ...Option) *Cache {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	c := &Cache{
		store:      NewMemoryStore(cfg.maxEntries, cfg.maxBytes),
		group:      NewGroup(),
		capEntries: cfg.maxEntries,
		capBytes:   cfg.maxBytes,
	}
	c.store.OnEvict(func(*Entry) { c.evictions.Add(1) })
	return c
}

// Begin resolves one admission for key and counts it exactly once:
//
//   - entry != nil: a hit — serve the cached result, no flight involved.
//   - flight != nil, leader true: a miss — the caller owns the simulation
//     and MUST eventually call Complete (success or failure), or every
//     follower of the flight blocks forever.
//   - flight != nil, leader false: coalesced — another caller is already
//     simulating this key; wait on flight.Done() and read flight.Result().
func (c *Cache) Begin(key string) (entry *Entry, flight *Flight, leader bool) {
	entry, flight, leader = c.Readmit(key)
	switch {
	case entry != nil:
		c.hits.Add(1)
	case leader:
		c.misses.Add(1)
	default:
		c.coalesced.Add(1)
	}
	return entry, flight, leader
}

// Readmit resolves an admission exactly as Begin does but moves no
// admission counter. A coordinator replaying its durable log re-admits the
// jobs that were live at the crash through it: like Seed, replay is neither
// a hit, a miss nor a coalesced submission.
//
// The store is re-checked after winning leadership, closing the race where
// the previous leader published between our lookup and our admit — that
// window resolves to a hit instead of a redundant simulation.
func (c *Cache) Readmit(key string) (entry *Entry, flight *Flight, leader bool) {
	if e, ok := c.store.Get(key); ok {
		return e, nil, false
	}
	f, isLeader := c.group.Admit(key)
	if !isLeader {
		return nil, f, false
	}
	if e, ok := c.store.Get(key); ok {
		f.Finish(e, nil)
		return e, nil, false
	}
	return nil, f, true
}

// Complete finishes a flight the caller leads. On success the entry is
// published to the store and replayed to every follower; on failure the
// error is, and the key stays uncached so the next submission re-runs.
func (c *Cache) Complete(f *Flight, e *Entry, err error) {
	if err == nil && e != nil {
		c.store.Put(e.Key, e)
	}
	f.Finish(e, err)
}

// Seed installs an entry without moving any admission counters. Used when a
// coordinator replays its durable log after a restart: the re-populated
// results should serve future hits, but replay itself is neither a hit nor
// a miss and must not distort the cache statistics.
func (c *Cache) Seed(e *Entry) {
	if e != nil && e.Key != "" {
		c.store.Put(e.Key, e)
	}
}

// Purge drops every cached entry, returning how many were removed.
// In-flight simulations are not interrupted; they re-publish on completion.
func (c *Cache) Purge() int { return c.store.Purge() }

// Stats snapshots the cache accounting.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Coalesced:  c.coalesced.Load(),
		Evictions:  c.evictions.Load(),
		Entries:    c.store.Len(),
		Bytes:      c.store.Bytes(),
		CapEntries: c.capEntries,
		CapBytes:   c.capBytes,
		InFlight:   c.group.Len(),
	}
}
