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

// MarshalJSON writes Completed — sorted ascending, as documented — as
// ranges. (An unsorted list still reads back as the same set, in more
// ranges than it needs.)
func (cp Checkpoint) MarshalJSON() ([]byte, error) {
	ranges := [][2]int{}
	for _, seq := range cp.Completed {
		if n := len(ranges); n > 0 && (seq == ranges[n-1][1] || seq == ranges[n-1][1]+1) {
			ranges[n-1][1] = seq
			continue
		}
		ranges = append(ranges, [2]int{seq, seq})
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
// barrier, so a checkpoint on disk always implies its experiments are on
// disk too. Callers that buffer records (BatchingSink) must flush before
// saving; Store writes synchronously, so the ordering holds by
// construction.
func (s *Store) SaveCheckpoint(cp *Checkpoint) error {
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
	return s.db.Barrier()
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
