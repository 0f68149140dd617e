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

// inputStore holds the inputs of one sweep (runJobs), and next to each
// input the values derived from it alone (each app's reference output,
// Silo's sorted records). An input is built by the first job that asks for
// it, read by every later job with the same key, and dropped, with
// everything derived from it, when the last job that acquired it releases
// it. Inputs and derived values are immutable once built; everything a
// simulation writes (RNG, caches, queues, backing store) stays private to
// its job.
type inputStore struct {
	mu      sync.Mutex
	entries map[inputKey]*storedInput
}

// storedInput is one input and the values derived from it alone: the
// input under the name "", each derived value under its own name.
type storedInput struct {
	refs   int
	values map[string]*lazy // guarded by the store's mu
}

// lazy is a value built once, by the first reader.
type lazy struct {
	once  sync.Once
	val   any
	panic any // what the build panicked with, re-raised for every reader
}

// get returns the value, calling build on first use. If build panics,
// every reader panics with the same value, as a private build would.
func (l *lazy) get(build func() any) any {
	l.once.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				l.panic = p
				panic(p)
			}
		}()
		l.val = build()
	})
	if l.panic != nil {
		panic(l.panic)
	}
	return l.val
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

// get returns the value named name of the input under k (the input itself
// for "", else a value derived from it alone), calling build on first use.
// A nil store (RunOne) or a key no job acquired gets a private build.
func (s *inputStore) get(k inputKey, name string, build func() any) any {
	var l *lazy
	if s != nil {
		s.mu.Lock()
		if e := s.entries[k]; e != nil {
			if l = e.values[name]; l == nil {
				if e.values == nil {
					e.values = map[string]*lazy{}
				}
				l = &lazy{}
				e.values[name] = l
			}
		}
		s.mu.Unlock()
	}
	if l == nil {
		return build()
	}
	return l.get(build)
}
