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

// Checkpoint is the durable cursor of a running campaign: which
// experiments of the plan are already logged, plus enough identity
// (plan hash, seed, experiment count) to refuse resuming a campaign
// whose definition changed underneath the checkpoint. The campaign's
// RNG state needs no separate field — planning is plan-first, so the
// seed alone reproduces the full injection plan and every
// per-experiment RNG.
type Checkpoint struct {
	Campaign    string `json:"campaign"`
	PlanHash    string `json:"planHash"`
	Seed        int64  `json:"seed"`
	Experiments int    `json:"experiments"`
	// Reference reports that the fault-free reference run is logged.
	Reference bool `json:"reference"`
	// Completed holds the sequence numbers of experiments whose end
	// records are durable, sorted ascending.
	Completed []int `json:"completed"`
	// Ranges, when non-nil, is the completed set as runs and is stored in
	// Completed's place: a writer that keeps runs (the scheduler, at every
	// cursor save) hands them over instead of one entry per experiment.
	// A cursor read back always has Completed filled and Ranges nil.
	Ranges SeqRanges `json:"-"`
}

// SeqRanges is a set of sequence numbers kept as ascending inclusive
// [lo, hi] runs that neither overlap nor touch — the stored form of a
// cursor's completed set.
type SeqRanges [][2]int

// Add returns the set with seq in it. A campaign completes its plan mostly
// in order, so the common case extends the last run in place.
func (r SeqRanges) Add(seq int) SeqRanges {
	// i is the first run that ends at or after seq-1. seq lies in it,
	// extends it at either end (upwards perhaps into the run after it), or
	// stands alone before it; every earlier run ends too far below.
	i := sort.Search(len(r), func(i int) bool { return r[i][1] >= seq-1 })
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

// checkpointJSON is the stored form of a Checkpoint. A campaign
// completes its plan mostly in order, so the completed set is written as
// ascending inclusive [lo, hi] runs — a few numbers where the flat list
// grew by one per experiment and was rewritten at every cursor save.
// Completed is the flat list of cursors stored before that; it is read,
// never written.
type checkpointJSON struct {
	Campaign    string   `json:"campaign"`
	PlanHash    string   `json:"planHash"`
	Seed        int64    `json:"seed"`
	Experiments int      `json:"experiments"`
	Reference   bool     `json:"reference"`
	Completed   []int    `json:"completed,omitempty"`
	Ranges      [][2]int `json:"completedRanges"`
}

// MarshalJSON writes the completed set — Ranges, or else Completed — as
// ranges.
func (cp Checkpoint) MarshalJSON() ([]byte, error) {
	ranges := cp.Ranges
	if ranges == nil {
		ranges = SeqRanges{}
		for _, seq := range cp.Completed {
			ranges = ranges.Add(seq)
		}
	}
	return json.Marshal(checkpointJSON{Campaign: cp.Campaign, PlanHash: cp.PlanHash, Seed: cp.Seed,
		Experiments: cp.Experiments, Reference: cp.Reference, Ranges: ranges})
}

// UnmarshalJSON reads either form back into the sorted flat list. The
// ranges must lie inside the plan and together name no more entries than
// it has: the blob comes from the database, and a range is expanded one
// entry per sequence number, so its bounds — unlike a flat list's length
// — are all that limits the allocation.
func (cp *Checkpoint) UnmarshalJSON(data []byte) error {
	var w checkpointJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	seqs := w.Completed
	for _, r := range w.Ranges {
		if r[0] < 0 || r[1] < r[0] || r[1] >= w.Experiments ||
			len(seqs)-len(w.Completed)+(r[1]-r[0]+1) > w.Experiments {
			return fmt.Errorf("campaign: checkpoint %q: bad completed range [%d, %d] in a plan of %d",
				w.Campaign, r[0], r[1], w.Experiments)
		}
		for seq := r[0]; seq <= r[1]; seq++ {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	*cp = Checkpoint{Campaign: w.Campaign, PlanHash: w.PlanHash, Seed: w.Seed,
		Experiments: w.Experiments, Reference: w.Reference, Completed: slices.Compact(seqs)}
	return nil
}

// Done reports whether sequence number seq is already completed.
func (cp *Checkpoint) Done(seq int) bool {
	i := sort.SearchInts(cp.Completed, seq)
	return i < len(cp.Completed) && cp.Completed[i] == seq
}

// checkpointDDL is appended to Schema in store.go.
const checkpointDDL = `CREATE TABLE IF NOT EXISTS CampaignCheckpoint (
		campaignName TEXT PRIMARY KEY,
		planHash     TEXT NOT NULL,
		cursor       BLOB NOT NULL,
		FOREIGN KEY (campaignName) REFERENCES CampaignData (campaignName)
	)`

// SaveCheckpoint stores the campaign cursor and raises a durability
// barrier before it returns, so a checkpoint on disk always implies its
// experiments are on disk too: Store writes synchronously, and the rows
// the cursor names were written before it. (BatchingSink keeps the same
// order in its queue, and shares one barrier among the cursors queued.)
func (s *Store) SaveCheckpoint(cp *Checkpoint) error {
	if err := s.putCheckpoint(cp); err != nil {
		return err
	}
	return s.db.Barrier()
}

// putCheckpoint writes the cursor row, without the barrier.
func (s *Store) putCheckpoint(cp *Checkpoint) error {
	blob, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("campaign: marshal checkpoint %q: %w", cp.Campaign, err)
	}
	n, err := s.db.Exec(`UPDATE CampaignCheckpoint SET planHash = ?, cursor = ? WHERE campaignName = ?`,
		sqldb.Text(cp.PlanHash), sqldb.Blob(blob), sqldb.Text(cp.Campaign))
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
// campaign. The stored checkpoint can lag reality — records flush before
// the cursor row is written, and a crash can land between the two — so
// the durable end-of-experiment rows are unioned in. Detail-trace rows
// whose experiment has no end row (the experiment died mid-run) are
// pruned, so re-running that experiment cannot collide with leftover
// step rows.
func (s *Store) RecoverCursor(campaignName string) (*Checkpoint, error) {
	cp, err := s.GetCheckpoint(campaignName)
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
	completed := make(map[int]bool, len(r.Rows))
	hasRef := false
	for _, row := range r.Rows {
		name := row[0].S
		have[name] = true
		if name == ref {
			hasRef = true
			continue
		}
		if seq, ok := parseExperimentSeq(campaignName, name); ok {
			completed[seq] = true
		}
	}
	out := &Checkpoint{Campaign: campaignName, Reference: hasRef}
	if cp != nil {
		out.PlanHash = cp.PlanHash
		out.Seed = cp.Seed
		out.Experiments = cp.Experiments
		out.Reference = out.Reference || cp.Reference
		for _, seq := range cp.Completed {
			completed[seq] = true
		}
	}
	for seq := range completed {
		out.Completed = append(out.Completed, seq)
	}
	sort.Ints(out.Completed)
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
