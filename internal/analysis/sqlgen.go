package analysis

import (
	"fmt"
	"strings"

	"goofi/internal/campaign"
	"goofi/internal/sqldb"
)

// This file implements the paper's §4 extension "automatic generation of
// software for analysing the database table LoggedSystemState": instead of
// the user writing tailor-made scripts, the analyzer materialises its
// per-experiment classification into an AnalysisResults table and
// generates the SQL that computes the dependability measures from it.

// ResultsDDL creates the AnalysisResults table. The foreign key ties each
// row back to its LoggedSystemState record.
const ResultsDDL = `CREATE TABLE IF NOT EXISTS AnalysisResults (
	experimentName TEXT PRIMARY KEY,
	campaignName   TEXT NOT NULL,
	class          TEXT NOT NULL,
	mechanism      TEXT,
	cycles         INTEGER,
	latency        INTEGER,
	wrongOutput    INTEGER NOT NULL,
	wrongMemory    INTEGER NOT NULL,
	timeliness     INTEGER NOT NULL,
	stateDiffBits  INTEGER NOT NULL,
	recovered      INTEGER NOT NULL,
	FOREIGN KEY (experimentName) REFERENCES LoggedSystemState (experimentName)
)`

// ResultsCampaignIndex backs the generated queries, which all filter on
// campaignName equality.
const ResultsCampaignIndex = `CREATE INDEX IF NOT EXISTS AnalysisResultsByCampaign
	ON AnalysisResults (campaignName)`

// resultsBatch is how many AnalysisResults rows one INSERT carries: the
// statement text is the same for every full batch, so it is parsed once,
// and each batch takes the engine lock and the write-ahead log once.
const resultsBatch = 128

// insertResultsSQL is the INSERT for n AnalysisResults rows.
func insertResultsSQL(n int) string {
	const row = `(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`
	return `INSERT INTO AnalysisResults VALUES ` + row + strings.Repeat(", "+row, n-1)
}

// WriteResults materialises a report's per-experiment details into the
// AnalysisResults table, replacing earlier results for the campaign.
func WriteResults(store *campaign.Store, rep *Report) error {
	db := store.DB()
	if _, err := db.Exec(ResultsDDL); err != nil {
		return fmt.Errorf("analysis: create results table: %w", err)
	}
	if _, err := db.Exec(ResultsCampaignIndex); err != nil {
		return fmt.Errorf("analysis: create results index: %w", err)
	}
	if _, err := db.Exec(`DELETE FROM AnalysisResults WHERE campaignName = ?`,
		sqldb.Text(rep.Campaign)); err != nil {
		return err
	}
	camp := sqldb.Text(rep.Campaign)
	sql := insertResultsSQL(resultsBatch)
	args := make([]sqldb.Value, 0, resultsBatch*11) // 11 columns a row
	for rest := rep.Details; len(rest) > 0; {
		batch := rest[:min(resultsBatch, len(rest))]
		rest = rest[len(batch):]
		if len(batch) < resultsBatch {
			sql = insertResultsSQL(len(batch))
		}
		args = args[:0]
		for i := range batch {
			d := &batch[i]
			mech := sqldb.Null()
			if d.Mechanism != "" {
				mech = sqldb.Text(d.Mechanism)
			}
			args = append(args, sqldb.Text(d.Experiment), camp, sqldb.Text(string(d.Class)),
				mech, sqldb.Int(int64(d.Cycles)), sqldb.Int(int64(d.Latency)),
				sqldb.Bool(d.WrongOutput), sqldb.Bool(d.WrongMemory), sqldb.Bool(d.Timeliness),
				sqldb.Int(int64(d.StateDiffBits)), sqldb.Int(int64(d.Recovered)))
		}
		if _, err := db.Exec(sql, args...); err != nil {
			return fmt.Errorf("analysis: insert results %s to %s: %w",
				batch[0].Experiment, batch[len(batch)-1].Experiment, err)
		}
	}
	return nil
}

// NamedQuery is one generated analysis query.
type NamedQuery struct {
	Name string
	SQL  string
}

// GeneratedQueries returns the analysis SQL generated for a campaign —
// the queries a user of the paper's tool would have written by hand.
func GeneratedQueries() []NamedQuery {
	return []NamedQuery{
		{
			Name: "outcome-distribution",
			SQL: `SELECT class, COUNT(*) AS n FROM AnalysisResults
				WHERE campaignName = ? GROUP BY class ORDER BY n DESC`,
		},
		{
			Name: "detections-per-mechanism",
			SQL: `SELECT mechanism, COUNT(*) AS n, AVG(latency) AS meanLatency
				FROM AnalysisResults
				WHERE campaignName = ? AND class = 'detected'
				GROUP BY mechanism ORDER BY n DESC`,
		},
		{
			Name: "escape-breakdown",
			SQL: `SELECT timeliness, COUNT(*) AS n FROM AnalysisResults
				WHERE campaignName = ? AND class = 'escaped'
				GROUP BY timeliness`,
		},
		{
			Name: "latent-severity",
			SQL: `SELECT COUNT(*) AS n, AVG(stateDiffBits) AS meanBits, MAX(stateDiffBits) AS maxBits
				FROM AnalysisResults
				WHERE campaignName = ? AND class = 'latent'`,
		},
		{
			Name: "slowest-detections",
			SQL: `SELECT experimentName, mechanism, latency FROM AnalysisResults
				WHERE campaignName = ? AND class = 'detected'
				ORDER BY latency DESC LIMIT 10`,
		},
		{
			Name: "invalid-runs",
			SQL: `SELECT experimentName FROM AnalysisResults
				WHERE campaignName = ? AND class = 'invalid-run'
				ORDER BY experimentName`,
		},
		{
			Name: "recovery-activity",
			SQL: `SELECT SUM(recovered) AS totalRecoveries, COUNT(*) AS experiments
				FROM AnalysisResults WHERE campaignName = ?`,
		},
	}
}

// RunGenerated executes every generated query for a campaign.
func RunGenerated(store *campaign.Store, campaignName string) (map[string]*sqldb.Result, error) {
	out := make(map[string]*sqldb.Result)
	for _, q := range GeneratedQueries() {
		r, err := store.DB().Query(q.SQL, sqldb.Text(campaignName))
		if err != nil {
			return nil, fmt.Errorf("analysis: generated query %q: %w", q.Name, err)
		}
		out[q.Name] = r
	}
	return out, nil
}

// AnalyzeAndStore is the one-call analysis phase: classify, materialise,
// and return the report.
func AnalyzeAndStore(store *campaign.Store, campaignName string) (*Report, error) {
	a, err := New(store, campaignName)
	if err != nil {
		return nil, err
	}
	rep, err := a.Run()
	if err != nil {
		return nil, err
	}
	if err := WriteResults(store, rep); err != nil {
		return nil, err
	}
	return rep, nil
}
