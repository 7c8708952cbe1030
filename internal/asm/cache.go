package asm

import (
	"crypto/sha256"
	"sync"
)

// assembleCacheCap bounds the cache: campaigns reuse a handful of
// workload sources, so a small LRU-free cap is plenty; on overflow the
// cache is simply cleared.
const assembleCacheCap = 64

var (
	assembleMu    sync.Mutex
	assembleCache = make(map[[sha256.Size]byte]*Program)
)

// AssembleCached is Assemble memoized by source hash. A campaign
// assembles the same workload once per experiment; the cached Program is
// shared by every experiment (and every board), so callers must treat it
// as immutable — in particular, download Image into target memory rather
// than mutating it. Errors are not cached.
func AssembleCached(source string) (*Program, error) {
	key := sha256.Sum256([]byte(source))
	assembleMu.Lock()
	prog, ok := assembleCache[key]
	assembleMu.Unlock()
	if ok {
		return prog, nil
	}
	prog, err := Assemble(source)
	if err != nil {
		return nil, err
	}
	assembleMu.Lock()
	if len(assembleCache) >= assembleCacheCap {
		assembleCache = make(map[[sha256.Size]byte]*Program)
	}
	assembleCache[key] = prog
	assembleMu.Unlock()
	return prog, nil
}

// ImageSize returns the assembled size of a workload source in bytes: what
// a SWIFI campaign sizes its fault space with.
func ImageSize(source string) (int, error) {
	prog, err := AssembleCached(source)
	if err != nil {
		return 0, err
	}
	return len(prog.Image), nil
}
