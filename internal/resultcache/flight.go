package resultcache

import "sync"

// Group deduplicates in-flight work by key: the first admission for a key
// becomes the flight's leader and runs the simulation; every admission that
// lands while the flight is open becomes a follower and waits for the
// leader's result instead of re-running it. Unlike x/sync/singleflight,
// followers do not block inside the admit call — they get a Flight handle
// with a Done channel and a progress feed, so the job service can give each
// follower its own job id, SSE stream, and deadline while exactly one
// simulation runs.
type Group struct {
	mu       sync.Mutex
	inflight map[string]*Flight
}

// NewGroup builds an empty group.
func NewGroup() *Group {
	return &Group{inflight: map[string]*Flight{}}
}

// Admit joins or opens the flight for key. The boolean reports leadership:
// the leader MUST eventually call Finish (directly or via Cache.Complete),
// or followers wait forever.
func (g *Group) Admit(key string) (*Flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.inflight[key]; ok {
		return f, false
	}
	f := &Flight{g: g, key: key, doneCh: make(chan struct{})}
	g.inflight[key] = f
	return f, true
}

// Len reports how many keys are currently in flight.
func (g *Group) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.inflight)
}

// Flight is one in-flight simulation shared by a leader and its followers.
type Flight struct {
	g   *Group
	key string

	mu         sync.Mutex
	leaderTag  string
	onProgress []func(done, total int)

	doneCh chan struct{}
	entry  *Entry
	err    error
}

// Key returns the flight's content address.
func (f *Flight) Key() string { return f.key }

// SetLeaderTag records an opaque identity for the leader (the job service
// stores the leader's job id) so followers can name it in errors and spans.
func (f *Flight) SetLeaderTag(tag string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.leaderTag = tag
}

// LeaderTag returns the tag set by SetLeaderTag ("" until the leader sets
// one).
func (f *Flight) LeaderTag() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leaderTag
}

// OnProgress registers a callback fed by the leader's Progress calls.
// Callbacks registered after the flight finished are never invoked (the
// follower will observe Done immediately instead).
func (f *Flight) OnProgress(fn func(done, total int)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	select {
	case <-f.doneCh:
		return
	default:
	}
	f.onProgress = append(f.onProgress, fn)
}

// Progress fans the leader's progress out to every registered follower.
// Calls are serialized under the flight mutex, matching the harness
// Progress contract.
func (f *Flight) Progress(done, total int) {
	f.mu.Lock()
	fns := append([]func(done, total int){}, f.onProgress...)
	f.mu.Unlock()
	for _, fn := range fns {
		fn(done, total)
	}
}

// Finish resolves the flight: followers unblock with (entry, err), and the
// key leaves the group so the next admission opens a fresh flight. Only the
// leader may call Finish, exactly once.
func (f *Flight) Finish(entry *Entry, err error) {
	f.g.mu.Lock()
	delete(f.g.inflight, f.key)
	f.g.mu.Unlock()
	f.mu.Lock()
	f.entry, f.err = entry, err
	f.onProgress = nil
	f.mu.Unlock()
	close(f.doneCh)
}

// Done is closed when the flight resolves.
func (f *Flight) Done() <-chan struct{} { return f.doneCh }

// Result returns the flight's outcome; valid only after Done is closed.
func (f *Flight) Result() (*Entry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.entry, f.err
}
