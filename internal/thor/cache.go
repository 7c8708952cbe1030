package thor

import "math/bits"

// Cache geometry. THOR-S uses small direct-mapped caches so that cache
// state is a meaningful but bounded share of the scan-chain bits, like the
// parity-protected instruction and data caches of the Thor RD.
const (
	// CacheLines is the number of lines per cache.
	CacheLines = 16
	// CacheWordsPerLine is the number of 32-bit words per line.
	CacheWordsPerLine = 4
	// CacheLineBytes is the line size in bytes.
	CacheLineBytes = CacheWordsPerLine * 4
	// CacheMissPenalty is the extra cycle cost of a line fill.
	CacheMissPenalty = 8
)

// cacheLine is one direct-mapped line: tag, valid bit, data words and one
// parity bit per word. Parity is computed on fill; a fault injected into
// the data or parity arrays is caught by the parity EDM on the next hit,
// exactly as in the parity-protected Thor RD caches.
//
// The fields are laid out without padding — spare fills the last word and
// is always zero — so that == on a cache's lines is one compare of their
// memory, not a call per field of every line: the boundary oracle compares
// both caches whenever a run's registers equal a recorded state's
// (CPU.Rejoins), about four times faster so.
type cacheLine struct {
	tag    uint32
	data   [CacheWordsPerLine]uint32
	valid  bool
	parity [CacheWordsPerLine]bool
	spare  [3]bool
}

// cache is a direct-mapped, write-through, parity-protected cache.
type cache struct {
	lines  [CacheLines]cacheLine
	hits   uint64
	misses uint64
}

func parityOf(w uint32) bool { return bits.OnesCount32(w)%2 == 1 }

func (c *cache) index(addr uint32) (line, word uint32, tag uint32) {
	word = addr / 4 % CacheWordsPerLine
	line = addr / CacheLineBytes % CacheLines
	tag = addr / (CacheLineBytes * CacheLines)
	return line, word, tag
}

// lookup returns the cached word for addr if present and parity-clean.
// ok reports a hit; parityErr reports a parity mismatch (which is also a
// hit in the sense that stale data was found — the EDM fires).
func (c *cache) lookup(addr uint32) (w uint32, ok, parityErr bool) {
	li, wi, tag := c.index(addr)
	ln := &c.lines[li]
	if !ln.valid || ln.tag != tag {
		c.misses++
		return 0, false, false
	}
	c.hits++
	if ln.parity[wi] != parityOf(ln.data[wi]) {
		return ln.data[wi], true, true
	}
	return ln.data[wi], true, false
}

// fill loads the line containing addr from memory words. lineWords must
// contain the CacheWordsPerLine words of the aligned line.
func (c *cache) fill(addr uint32, lineWords [CacheWordsPerLine]uint32) {
	li, _, tag := c.index(addr)
	ln := &c.lines[li]
	ln.tag = tag
	ln.valid = true
	for i, w := range lineWords {
		ln.data[i] = w
		ln.parity[i] = parityOf(w)
	}
}

// update writes a word through the cache (write-through with
// write-allocate bypass: only lines already present are updated).
func (c *cache) update(addr, w uint32) {
	li, wi, tag := c.index(addr)
	ln := &c.lines[li]
	if ln.valid && ln.tag == tag {
		ln.data[wi] = w
		ln.parity[wi] = parityOf(w)
	}
}

// invalidateAll clears every line, as a reset does.
func (c *cache) invalidateAll() {
	for i := range c.lines {
		c.lines[i] = cacheLine{}
	}
	c.hits, c.misses = 0, 0
}

// Stats reports hit/miss counters since the last reset.
func (c *cache) stats() (hits, misses uint64) { return c.hits, c.misses }
