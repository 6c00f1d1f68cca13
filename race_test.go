package schemanet_test

// Distinct sessions are independent: one goroutine per session must
// never race. This test exercises that pattern under the race detector:
// if sessions ever shared hidden mutable state — engine scratch,
// samplers, package-level caches — `go test -race` flags it here.
// Sharing one session across goroutines is covered by
// concurrent_test.go.

import (
	"sync"
	"testing"

	"schemanet"
)

func TestSessionsAreIndependentAcrossGoroutines(t *testing.T) {
	net, truth := multiVideoNet(t, 2)
	const sessions = 4
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each goroutine owns its session end to end: build,
			// reconcile, instantiate, save.
			s, err := schemanet.NewSession(net, &schemanet.Options{Seed: int64(i), Samples: 120})
			if err != nil {
				errs[i] = err
				return
			}
			for step := 0; step < net.NumCandidates(); step++ {
				c, ok := s.Suggest()
				if !ok {
					break
				}
				if err := s.Assert(c, truth.ContainsCorrespondence(net.Candidate(c))); err != nil {
					errs[i] = err
					return
				}
			}
			if got := s.Instantiate(); got.Size() == 0 {
				errs[i] = errEmptyInstantiation
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
}

var errEmptyInstantiation = errEmpty{}

type errEmpty struct{}

func (errEmpty) Error() string { return "empty instantiation" }
