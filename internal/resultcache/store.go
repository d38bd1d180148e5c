package resultcache

import "sync"

// MemoryStore is the cache's store of rendered results, keyed by
// fingerprint: a mutex-guarded map with LRU eviction bounded by entry count
// and accounted bytes, safe for concurrent use. The zero value is not
// usable; construct with NewMemoryStore.
type MemoryStore struct {
	mu      sync.Mutex
	entries map[string]*lruNode
	policy  lruPolicy
	bytes   int64
	onEvict func(*Entry)
}

// NewMemoryStore builds a store bounded to maxEntries entries and maxBytes
// accounted bytes (0 disables that bound). A single entry larger than
// maxBytes is still admitted alone: refusing it would make the largest
// results — exactly the ones worth caching — permanently uncacheable.
func NewMemoryStore(maxEntries int, maxBytes int64) *MemoryStore {
	return &MemoryStore{
		entries: map[string]*lruNode{},
		policy:  lruPolicy{maxEntries: maxEntries, maxBytes: maxBytes},
	}
}

// OnEvict registers a callback invoked (outside the lock's critical
// operations but under the store mutex) for every displaced entry.
func (s *MemoryStore) OnEvict(fn func(*Entry)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onEvict = fn
}

// Get returns the entry for key and marks it most recently used.
func (s *MemoryStore) Get(key string) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.policy.touch(n)
	return n.entry, true
}

// Put inserts or replaces key, then evicts least-recently-used entries
// until the policy's bounds hold again.
func (s *MemoryStore) Put(key string, e *Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[key]; ok {
		s.bytes -= old.entry.Size()
		s.policy.remove(old)
		delete(s.entries, key)
	}
	n := &lruNode{key: key, entry: e}
	s.policy.push(n)
	s.entries[key] = n
	s.bytes += e.Size()
	for s.policy.overfull(len(s.entries), s.bytes) && len(s.entries) > 1 {
		s.evictOldest()
	}
	// A single oversized entry stays resident alone; evict it only when the
	// entry bound itself says so.
	if s.policy.maxEntries > 0 && len(s.entries) > s.policy.maxEntries {
		s.evictOldest()
	}
}

// evictOldest drops the least-recently-used entry. Caller holds the mutex.
func (s *MemoryStore) evictOldest() {
	n := s.policy.oldest()
	if n == nil {
		return
	}
	s.policy.remove(n)
	delete(s.entries, n.key)
	s.bytes -= n.entry.Size()
	if s.onEvict != nil {
		s.onEvict(n.entry)
	}
}

// Purge drops every entry (not counted as evictions: purges are operator
// actions, evictions are capacity pressure).
func (s *MemoryStore) Purge() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.entries)
	s.entries = map[string]*lruNode{}
	s.policy.reset()
	s.bytes = 0
	return n
}

// Len reports the resident entry count.
func (s *MemoryStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes reports the accounted resident bytes.
func (s *MemoryStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}
