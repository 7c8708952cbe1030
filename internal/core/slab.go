package core

import "goofi/internal/campaign"

// slabLen is how many takes a slab makes room for when a take allocates
// it, each of that take's size, and how many names one string of itemNames
// holds.
const slabLen = 64

// Slab hands out short slices carved from shared allocations. What a run
// makes for every row — the record, its name, the list of bits its scan
// state differs by, the copies of a result's memory and outputs — lives
// from the board to the sink's writer, so carving it costs one allocation
// a slab, not one a row. A carved slice is capped at its length, so an
// append to it copies, and it is never handed out again: a slab is garbage
// once every row carved from it is stored. The zero value is ready; only
// one goroutine takes from a slab.
type Slab[T any] []T

// Take returns n fresh elements.
func (s *Slab[T]) Take(n int) []T {
	if n > len(*s) {
		*s = make([]T, slabLen*n)
	}
	v := (*s)[:n:n]
	*s = (*s)[n:]
	return v
}

// Copy returns a copy of v carved from the slab, nil when v is empty:
// what append([]T(nil), v...) returns.
func (s *Slab[T]) Copy(v []T) []T {
	if len(v) == 0 {
		return nil
	}
	c := s.Take(len(v))
	copy(c, v)
	return c
}

// records hands out the records of a run's rows and logs them: a sink's
// own, when the run logs straight to a *campaign.BatchingSink, which takes
// them back once stored; carved from a slab otherwise. Only one goroutine
// takes from a records.
type records struct {
	sink *campaign.BatchingSink
	slab Slab[campaign.ExperimentRecord]
}

// recordsFor returns the records of rows logged to sink.
func recordsFor(sink ResultSink) records {
	bs, _ := sink.(*campaign.BatchingSink)
	return records{sink: bs}
}

// next returns a zero record.
func (rs *records) next() *campaign.ExperimentRecord {
	if rs.sink != nil {
		return rs.sink.NewRecord()
	}
	return &rs.slab.Take(1)[0]
}

// log hands rec, which next returned, to sink, the run's.
func (rs *records) log(sink ResultSink, rec *campaign.ExperimentRecord) error {
	if rs.sink != nil {
		return rs.sink.LogOwned(rec)
	}
	return sink.LogExperiment(rec)
}

// itemNames names a run's items in the order the hand-over stage classifies
// them, slabLen names to one string: a row's name is a substring of it, and
// the stored row, whose primary key it is, keeps it.
type itemNames struct {
	buf    []byte
	s      string
	lo, hi int // the items s names
	ends   [slabLen]int
}

// at returns the name of item idx of items, the run's sequence numbers.
// Calls come in ascending idx.
func (n *itemNames) at(campaignName string, items []int32, idx int) string {
	if idx < n.lo || idx >= n.hi {
		n.lo, n.hi = idx, min(idx+slabLen, len(items))
		b := n.buf[:0]
		for i := n.lo; i < n.hi; i++ {
			b = campaign.AppendExperimentName(b, campaignName, int(items[i]))
			n.ends[i-n.lo] = len(b)
		}
		n.buf, n.s = b, string(b)
	}
	i, start := idx-n.lo, 0
	if i > 0 {
		start = n.ends[i-1]
	}
	return n.s[start:n.ends[i]]
}
