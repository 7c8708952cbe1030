package main

// Output checks: what a finished store must look like, whichever path
// produced it.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"goofi/internal/campaign"
	"goofi/internal/sqldb"
)

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// validOutcome lists the classified end states; an invalid-run row, or
// no row at all, is a failed experiment.
var validOutcome = map[campaign.OutcomeStatus]bool{
	campaign.OutcomeCompleted: true,
	campaign.OutcomeDetected:  true,
	campaign.OutcomeTimeout:   true,
	campaign.OutcomeMasked:    true,
	campaign.OutcomeSDC:       true,
	campaign.OutcomeCrash:     true,
	campaign.OutcomeHang:      true,
}

// rowSet is the canonical view of a campaign's LoggedSystemState end
// rows: one digest per plan sequence over the stored bytes (name,
// experimentData, stateVector), plus the reference row's.
type rowSet struct {
	planned   int
	reference *[32]byte
	rows      map[int][32]byte
	valid     int
	invalid   int
	stray     int // end rows that are neither the reference nor a plan slot
	classes   map[campaign.OutcomeStatus]int
}

// readRows opens a finished store and digests the campaign's end rows.
func readRows(dbPath string, planned int) (*rowSet, error) {
	db, err := sqldb.OpenAt(dbPath, sqldb.SyncNever)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	return readRowsDB(db, planned)
}

func readRowsDB(db *sqldb.DB, planned int) (*rowSet, error) {
	res, err := db.Query(`SELECT experimentName, experimentData, stateVector
		FROM LoggedSystemState WHERE campaignName = ? AND step = -1`, sqldb.Text(campaignName))
	if err != nil {
		return nil, err
	}
	rs := &rowSet{planned: planned, rows: make(map[int][32]byte, len(res.Rows)),
		classes: make(map[campaign.OutcomeStatus]int)}
	refName := campaign.ReferenceName(campaignName)
	for _, row := range res.Rows {
		name, data, state := row[0].S, row[1].B, row[2].B
		h := sha256.New()
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write(data)
		h.Write([]byte{0})
		h.Write(state)
		var d [32]byte
		h.Sum(d[:0])
		if name == refName {
			rs.reference = &d
			continue
		}
		var ed struct {
			Seq     int `json:"seq"`
			Outcome struct {
				Status campaign.OutcomeStatus `json:"status"`
			} `json:"outcome"`
		}
		if err := json.Unmarshal(data, &ed); err != nil {
			return nil, fmt.Errorf("row %s: %w", name, err)
		}
		if ed.Seq < 0 || ed.Seq >= planned || name != campaign.ExperimentName(campaignName, ed.Seq) {
			rs.stray++
			continue
		}
		rs.rows[ed.Seq] = d
		rs.classes[ed.Outcome.Status]++
		if validOutcome[ed.Outcome.Status] {
			rs.valid++
		} else {
			rs.invalid++
		}
	}
	return rs, nil
}

// conserved checks planned = accepted + invalid: the reference row and
// exactly one end row per plan slot, nothing else.
func (rs *rowSet) conserved() error {
	switch {
	case rs.reference == nil:
		return fmt.Errorf("no reference row")
	case rs.stray > 0:
		return fmt.Errorf("%d end rows outside the plan", rs.stray)
	case rs.valid+rs.invalid != rs.planned:
		return fmt.Errorf("planned %d, accepted %d + invalid %d", rs.planned, rs.valid, rs.invalid)
	}
	return nil
}

// failed counts plan slots without a validly classified row.
func (rs *rowSet) failed() int { return rs.planned - rs.valid }

// hash digests the reference row and the plan's first k rows in
// sequence order; hash(planned) identifies the whole campaign.
func (rs *rowSet) hash(k int) string {
	h := sha256.New()
	if rs.reference != nil {
		h.Write(rs.reference[:])
	}
	for seq := 0; seq < k; seq++ {
		d := rs.rows[seq] // a missing row digests as zeros
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
