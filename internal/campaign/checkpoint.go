package campaign

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"goofi/internal/sqldb"
)

// Checkpoint is a campaign's resume point. The stored cursor is its
// identity only — plan hash, seed, experiment count and whether the
// reference is logged — enough to refuse resuming a campaign whose
// definition changed underneath it. Which experiments are complete is
// never stored twice: the durable end rows are the record, and
// RecoverCursor reads Ranges from them. The campaign's RNG state needs no
// field either — planning is plan-first, so the seed alone reproduces the
// full injection plan and every per-experiment RNG.
type Checkpoint struct {
	Campaign    string `json:"campaign"`
	PlanHash    string `json:"planHash"`
	Seed        int64  `json:"seed"`
	Experiments int    `json:"experiments"`
	// Reference reports that the fault-free reference run is logged.
	Reference bool `json:"reference"`
	// Ranges is the completed set RecoverCursor read from the durable end
	// rows, within [0, the campaign's experiment count). It is not stored.
	Ranges SeqRanges `json:"-"`
	// Completed is ignored, neither stored nor read. It remains only for
	// the benchmark's cursor-size probe, which still sets it.
	Completed []int `json:"-"`
}

// SeqRanges is a set of sequence numbers kept as ascending inclusive
// [lo, hi] runs that neither overlap nor touch: a campaign completes its
// plan mostly in order, so the set is a few runs however many experiments
// it holds.
type SeqRanges [][2]int

// search returns the first run that ends at or after seq.
func (r SeqRanges) search(seq int) int {
	return sort.Search(len(r), func(i int) bool { return r[i][1] >= seq })
}

// Has reports whether seq is in the set.
func (r SeqRanges) Has(seq int) bool {
	i := r.search(seq)
	return i < len(r) && r[i][0] <= seq
}

// Len returns the number of sequence numbers in the set.
func (r SeqRanges) Len() int {
	n := 0
	for _, run := range r {
		n += run[1] - run[0] + 1
	}
	return n
}

// Holes returns the sequence numbers of [lo, hi) that are not in the set,
// as runs of the same form.
func (r SeqRanges) Holes(lo, hi int) SeqRanges {
	var out SeqRanges
	for i := r.search(lo); lo < hi; i++ {
		end := hi
		if i < len(r) && r[i][0] < hi {
			end = r[i][0]
		}
		if lo < end {
			out = append(out, [2]int{lo, end - 1})
		}
		if i >= len(r) {
			break
		}
		lo = r[i][1] + 1
	}
	return out
}

// Add returns the set with seq in it. The common case, the next sequence
// number in order, extends the last run in place.
func (r SeqRanges) Add(seq int) SeqRanges {
	// i is the first run that ends at or after seq-1. seq lies in it,
	// extends it at either end (upwards perhaps into the run after it), or
	// stands alone before it; every earlier run ends too far below.
	i := r.search(seq - 1)
	switch {
	case i == len(r):
		return append(r, [2]int{seq, seq})
	case seq >= r[i][0] && seq <= r[i][1]:
		return r
	case seq == r[i][1]+1:
		r[i][1] = seq
		if i+1 < len(r) && r[i+1][0] == seq+1 {
			r[i][1] = r[i+1][1]
			r = slices.Delete(r, i+1, i+2)
		}
		return r
	case seq == r[i][0]-1:
		r[i][0] = seq
		return r
	}
	return slices.Insert(r, i, [2]int{seq, seq})
}

// appendJSON appends the stored cursor to buf as json.Marshal writes a
// Checkpoint.
func (cp *Checkpoint) appendJSON(buf []byte) []byte {
	buf = append(buf, `{"campaign":`...)
	buf = appendMarshaledString(buf, cp.Campaign)
	buf = append(buf, `,"planHash":`...)
	buf = appendMarshaledString(buf, cp.PlanHash)
	buf = append(buf, `,"seed":`...)
	buf = strconv.AppendInt(buf, cp.Seed, 10)
	buf = append(buf, `,"experiments":`...)
	buf = strconv.AppendInt(buf, int64(cp.Experiments), 10)
	buf = append(buf, `,"reference":`...)
	buf = strconv.AppendBool(buf, cp.Reference)
	return append(buf, '}')
}

// appendMarshaledString appends s as json.Marshal writes a string. Printable
// ASCII that it does not escape is copied as it stands; anything else — a
// quote, a backslash, a character it escapes for HTML, a control character
// or a byte beyond ASCII — is left to json.Marshal.
func appendMarshaledString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// checkpointDDL is appended to Schema in store.go.
const checkpointDDL = `CREATE TABLE IF NOT EXISTS CampaignCheckpoint (
		campaignName TEXT PRIMARY KEY,
		planHash     TEXT NOT NULL,
		cursor       BLOB NOT NULL,
		FOREIGN KEY (campaignName) REFERENCES CampaignData (campaignName)
	)`

// updateCursorSQL is the UPDATE of a campaign's cursor row, which the
// store prepares.
const updateCursorSQL = `UPDATE CampaignCheckpoint SET planHash = ?, cursor = ? WHERE campaignName = ?`

// SaveCheckpoint stores the campaign cursor and raises a durability
// barrier before it returns, so everything written before it is on disk.
// (BatchingSink keeps the same order in its queue, and shares one barrier
// among the cursors queued.)
func (s *Store) SaveCheckpoint(cp *Checkpoint) error {
	e := encoders.Get().(*rowEncoder)
	err := s.putCheckpoint(e, cp)
	encoders.Put(e)
	if err != nil {
		return err
	}
	return s.db.Barrier()
}

// putCheckpoint writes the cursor row, without the barrier: its JSON is
// appended to e's scratch and copied once into the blob the row keeps.
func (s *Store) putCheckpoint(e *rowEncoder, cp *Checkpoint) error {
	e.scratch = cp.appendJSON(e.scratch[:0])
	blob := make([]byte, len(e.scratch))
	copy(blob, e.scratch)
	n, err := s.putCursor.Exec(sqldb.Text(cp.PlanHash), sqldb.Blob(blob), sqldb.Text(cp.Campaign))
	if err != nil {
		return err
	}
	if n == 0 {
		if _, err := s.db.Exec(`INSERT INTO CampaignCheckpoint VALUES (?, ?, ?)`,
			sqldb.Text(cp.Campaign), sqldb.Text(cp.PlanHash), sqldb.Blob(blob)); err != nil {
			return err
		}
	}
	return nil
}

// GetCheckpoint loads the stored cursor of a campaign, or nil when the
// campaign has none.
func (s *Store) GetCheckpoint(campaignName string) (*Checkpoint, error) {
	r, err := s.db.Query(`SELECT cursor FROM CampaignCheckpoint WHERE campaignName = ?`,
		sqldb.Text(campaignName))
	if err != nil {
		return nil, err
	}
	if len(r.Rows) == 0 {
		return nil, nil
	}
	var cp Checkpoint
	if err := json.Unmarshal(r.Rows[0][0].B, &cp); err != nil {
		return nil, fmt.Errorf("campaign: unmarshal checkpoint %q: %w", campaignName, err)
	}
	return &cp, nil
}

// DeleteCheckpoint removes a campaign's cursor (fresh runs and completed
// campaigns have none).
func (s *Store) DeleteCheckpoint(campaignName string) error {
	_, err := s.db.Exec(`DELETE FROM CampaignCheckpoint WHERE campaignName = ?`,
		sqldb.Text(campaignName))
	return err
}

// RecoverCursor reconstructs the resume point of an interrupted
// campaign: the stored cursor's identity, and the completed set read from
// the durable end-of-experiment rows alone — the only record of
// completion, so a row deleted after a cursor save is not complete. The
// set is bounded by the campaign's definition, never by the stored blob.
// Detail-trace rows whose experiment has no end row (the experiment died
// mid-run) are pruned, so re-running that experiment cannot collide with
// leftover step rows.
func (s *Store) RecoverCursor(campaignName string) (*Checkpoint, error) {
	cp, err := s.GetCheckpoint(campaignName)
	if err != nil {
		return nil, err
	}
	out := &Checkpoint{Campaign: campaignName}
	if cp != nil {
		out.PlanHash, out.Seed, out.Experiments, out.Reference = cp.PlanHash, cp.Seed, cp.Experiments, cp.Reference
	}
	camp, err := s.GetCampaign(campaignName)
	if err != nil {
		return nil, err
	}
	r, err := s.db.Query(`SELECT experimentName FROM LoggedSystemState WHERE campaignName = ? AND step = -1`,
		sqldb.Text(campaignName))
	if err != nil {
		return nil, err
	}
	ref := ReferenceName(campaignName)
	have := make(map[string]bool, len(r.Rows))
	seqs := make([]int, 0, len(r.Rows))
	for _, row := range r.Rows {
		name := row[0].S
		have[name] = true
		if name == ref {
			out.Reference = true
		} else if seq, ok := parseExperimentSeq(campaignName, name); ok && seq < camp.NumExperiments {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		out.Ranges = out.Ranges.Add(seq)
	}
	if err := s.pruneOrphanTraces(campaignName, have); err != nil {
		return nil, err
	}
	return out, nil
}

// pruneOrphanTraces deletes detail-mode step rows whose parent
// experiment has no end record.
func (s *Store) pruneOrphanTraces(campaignName string, have map[string]bool) error {
	r, err := s.db.Query(`SELECT DISTINCT parentExperiment FROM LoggedSystemState
		WHERE campaignName = ? AND step >= 0`, sqldb.Text(campaignName))
	if err != nil {
		return err
	}
	for _, row := range r.Rows {
		if row[0].IsNull() || have[row[0].S] {
			continue
		}
		if _, err := s.db.Exec(`DELETE FROM LoggedSystemState WHERE parentExperiment = ? AND step >= 0`,
			sqldb.Text(row[0].S)); err != nil {
			return err
		}
	}
	return nil
}

// parseExperimentSeq inverts ExperimentName: "c/exp00042" -> 42. Names
// with any other shape (reference, reruns, detail steps) report false.
func parseExperimentSeq(campaignName, name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, campaignName+"/exp")
	if !ok || rest == "" {
		return 0, false
	}
	for i := 0; i < len(rest); i++ {
		if rest[i] < '0' || rest[i] > '9' {
			return 0, false
		}
	}
	seq, err := strconv.Atoi(rest)
	if err != nil {
		return 0, false
	}
	return seq, true
}
