package bench

import "sync"

// inputKey identifies one generated input: the generator family that built
// it (apps of one family read the same inputs) and the (input, scale, seed)
// it was built from.
type inputKey struct {
	family, input string
	scale         int
	seed          uint64
}

// inputStore holds the inputs of one Runner.Run sweep. An input is built by
// the first job that asks for it, read by every later job with the same key,
// and dropped when the last job that acquired it releases it. Inputs are
// immutable once built; everything a simulation writes (RNG, caches, queues,
// backing store) stays private to its job.
type inputStore struct {
	mu      sync.Mutex
	entries map[inputKey]*storedInput
}

type storedInput struct {
	refs  int
	once  sync.Once
	val   any
	panic any // what the build panicked with, re-raised for every reader
}

// acquire counts one more job that will read k.
func (s *inputStore) acquire(k inputKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[k]
	if e == nil {
		if s.entries == nil {
			s.entries = map[inputKey]*storedInput{}
		}
		e = &storedInput{}
		s.entries[k] = e
	}
	e.refs++
}

// release drops one job's reference to k, and the input with the last one.
func (s *inputStore) release(k inputKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[k]; e != nil {
		if e.refs--; e.refs == 0 {
			delete(s.entries, k)
		}
	}
}

// get returns the input under k, calling build on first use. A nil store
// (RunOne) or a key no job acquired gets a private build. If build panics,
// every reader of k panics with the same value, as a private build would.
func (s *inputStore) get(k inputKey, build func() any) any {
	var e *storedInput
	if s != nil {
		s.mu.Lock()
		e = s.entries[k]
		s.mu.Unlock()
	}
	if e == nil {
		return build()
	}
	e.once.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				e.panic = p
				panic(p)
			}
		}()
		e.val = build()
	})
	if e.panic != nil {
		panic(e.panic)
	}
	return e.val
}
