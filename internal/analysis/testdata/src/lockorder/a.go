// Package lockfix mirrors the session's lock fields
// so the lockorder analyzer's hierarchy table can be exercised without
// loading the real root package.
package lockfix

import "sync"

type ComponentSnapshot struct{ probs []float64 }

type Session struct {
	topoMu  sync.RWMutex
	batchMu sync.RWMutex
	locks   []sync.Mutex
	feedMu  sync.Mutex
	rngMu   sync.Mutex
}

type SessionStore struct {
	mu   sync.Mutex
	open map[string]*liveSession
}

type liveSession struct {
	walMu sync.Mutex
}

// assertPattern is the canonical write path: topo read lock, one
// component lock, feedMu briefly inside it. In order; silent.
func (s *Session) assertPattern(k int) {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	s.locks[k].Lock()
	defer s.locks[k].Unlock()
	s.feedMu.Lock()
	s.feedMu.Unlock()
}

// lockAllPattern is the whole-network path: batch exclusion, every
// component in ascending range order, then feedMu, then rngMu. Silent.
func (s *Session) lockAllPattern() {
	s.batchMu.Lock()
	for k := range s.locks {
		s.locks[k].Lock()
	}
	s.feedMu.Lock()
	s.rngMu.Lock()
}

// applyPattern maintains the component whose sampler shares the
// session rng: rngMu nests inside its component lock. Silent.
func (s *Session) applyPattern(k int) {
	s.locks[k].Lock()
	defer s.locks[k].Unlock()
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
}

// componentUnderRng inverts the component/rng order: a Suggest draw
// that then waited on a component lock could deadlock against an
// Assert holding that component and waiting on the rng.
func (s *Session) componentUnderRng(k int) {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	s.locks[k].Lock() // want `locks\[k\] acquired while holding Session\.rngMu`
	s.locks[k].Unlock()
}

// feedThenComponent inverts the component/feed order.
func (s *Session) feedThenComponent(k int) {
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	s.locks[k].Lock() // want `locks\[k\] acquired while holding Session\.feedMu`
	defer s.locks[k].Unlock()
}

// descendingComponents acquires two component locks out of ascending
// order.
func (s *Session) descendingComponents() {
	s.locks[2].Lock()
	s.locks[1].Lock() // want `component lock 1 acquired while holding component lock 2`
	s.locks[1].Unlock()
	s.locks[2].Unlock()
}

// batchAfterComponent takes the batch exclusion after a component lock.
func (s *Session) batchAfterComponent(k int) {
	s.locks[k].Lock()
	defer s.locks[k].Unlock()
	s.batchMu.RLock() // want `batchMu acquired while holding Session\.locks\[k\]`
	defer s.batchMu.RUnlock()
}

// topoAfterFeed violates the order across the whole hierarchy.
func (s *Session) topoAfterFeed() {
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	s.topoMu.Lock() // want `topoMu acquired while holding Session\.feedMu`
	defer s.topoMu.Unlock()
}

// doubleFeed self-deadlocks.
func (s *Session) doubleFeed() {
	s.feedMu.Lock()
	s.feedMu.Lock() // want `feedMu acquired while already held`
	s.feedMu.Unlock()
	s.feedMu.Unlock()
}

// releasedBetween is silent: the first component lock is released
// before the lower-indexed one is taken, and feedMu is released before
// the next component lock.
func (s *Session) releasedBetween(k int) {
	s.locks[2].Lock()
	s.locks[2].Unlock()
	s.locks[1].Lock()
	s.locks[1].Unlock()
	s.feedMu.Lock()
	s.feedMu.Unlock()
	s.locks[k].Lock()
	s.locks[k].Unlock()
}

// goroutineBody starts fresh: the literal holds nothing at entry, so
// its topoMu acquisition is silent even though the method holds feedMu.
func (s *Session) goroutineBody() {
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	go func() {
		s.topoMu.RLock()
		s.topoMu.RUnlock()
	}()
}

// outsideHelper acquires a component lock from a plain function: even
// in the right order, the discipline must live in session methods.
func outsideHelper(s *Session, k int) {
	s.locks[k].Lock() // want `component lock Session\.locks acquired outside Session's methods`
	s.locks[k].Unlock()
}

// otherOwner is a method, but of the wrong type.
func (st *SessionStore) otherOwner(s *Session) {
	s.locks[0].Lock() // want `component lock Session\.locks acquired outside Session's methods`
	s.locks[0].Unlock()
}

// storeOrder is the documented store hierarchy. Silent.
func (st *SessionStore) storeOrder(ls *liveSession) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ls.walMu.Lock()
	defer ls.walMu.Unlock()
}

// storeInverted takes the store lock under a session's WAL lock.
func (st *SessionStore) storeInverted(ls *liveSession) {
	ls.walMu.Lock()
	defer ls.walMu.Unlock()
	st.mu.Lock() // want `SessionStore\.mu acquired while holding liveSession\.walMu`
	defer st.mu.Unlock()
}

// suggestRankPattern is the lazy Suggest loop: under the topology read
// lock, stale components are ranked in descending-entropy order — an
// arbitrary index order — which is safe only because each component
// lock is released before the next is taken. Silent.
func (s *Session) suggestRankPattern(pending []int) {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	for _, k := range pending {
		s.locks[k].Lock()
		s.locks[k].Unlock()
	}
}

// rankHoldingPrevious shows why the release matters: ranking component
// 1 while still holding component 2 (entropy order need not be
// ascending) is the deadlock the released-between discipline prevents.
func (s *Session) rankHoldingPrevious() {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	s.locks[2].Lock()
	defer s.locks[2].Unlock()
	s.locks[1].Lock() // want `component lock 1 acquired while holding component lock 2`
	s.locks[1].Unlock()
}

// localMutex is untracked state; silent whatever the order.
func (s *Session) localMutex() {
	var mu sync.Mutex
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	mu.Lock()
	mu.Unlock()
}

// suppressed documents a deliberate, justified violation.
func (s *Session) suppressed(k int) {
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	//lint:ignore lockorder fixture: proving the escape hatch silences a real violation
	s.locks[k].Lock()
	s.locks[k].Unlock()
}
