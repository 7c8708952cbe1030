package analysis

import (
	"fmt"
	"slices"
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

// resultsWriter materialises a report's per-experiment details into the
// AnalysisResults table, replacing one campaign's earlier results: begin
// creates the table and its index and deletes the rows an earlier analysis
// left, then insert writes the new ones a batch at a time, each batch one
// INSERT. fail puts the deleted rows back.
type resultsWriter struct {
	db       *sqldb.DB
	campaign string
	begun    bool
	// old holds the rows begin deleted.
	old [][]sqldb.Value
	// full is the INSERT of a full batch, the same text batch after
	// batch, so that the engine parses it once.
	full string
	// args is the one INSERT's parameters, reused batch after batch: the
	// engine copies the values it keeps.
	args []sqldb.Value
}

func newResultsWriter(db *sqldb.DB, campaignName string) *resultsWriter {
	return &resultsWriter{db: db, campaign: campaignName, full: insertResultsSQL(resultsBatch),
		args: make([]sqldb.Value, 0, resultsBatch*11)} // 11 columns a row
}

// insertSQL is the INSERT for n rows.
func (w *resultsWriter) insertSQL(n int) string {
	if n == resultsBatch {
		return w.full
	}
	return insertResultsSQL(n)
}

func (w *resultsWriter) begin() error {
	if slices.Contains(w.db.TableNames(), "AnalysisResults") {
		r, err := w.db.Query(`SELECT * FROM AnalysisResults WHERE campaignName = ?`, sqldb.Text(w.campaign))
		if err != nil {
			return fmt.Errorf("analysis: read earlier results: %w", err)
		}
		w.old = r.Rows
	}
	w.begun = true
	if _, err := w.db.Exec(ResultsDDL); err != nil {
		return fmt.Errorf("analysis: create results table: %w", err)
	}
	if _, err := w.db.Exec(ResultsCampaignIndex); err != nil {
		return fmt.Errorf("analysis: create results index: %w", err)
	}
	_, err := w.db.Exec(`DELETE FROM AnalysisResults WHERE campaignName = ?`, sqldb.Text(w.campaign))
	return err
}

// insert writes one batch of at most resultsBatch rows.
func (w *resultsWriter) insert(batch []Details) error {
	camp := sqldb.Text(w.campaign)
	w.args = w.args[:0]
	for i := range batch {
		d := &batch[i]
		mech := sqldb.Null()
		if d.Mechanism != "" {
			mech = sqldb.Text(d.Mechanism)
		}
		w.args = append(w.args, sqldb.Text(d.Experiment), camp, sqldb.Text(string(d.Class)),
			mech, sqldb.Int(int64(d.Cycles)), sqldb.Int(int64(d.Latency)),
			sqldb.Bool(d.WrongOutput), sqldb.Bool(d.WrongMemory), sqldb.Bool(d.Timeliness),
			sqldb.Int(int64(d.StateDiffBits)), sqldb.Int(int64(d.Recovered)))
	}
	if _, err := w.db.Exec(w.insertSQL(len(batch)), w.args...); err != nil {
		return fmt.Errorf("analysis: insert results %s to %s: %w",
			batch[0].Experiment, batch[len(batch)-1].Experiment, err)
	}
	return nil
}

// fail returns err after putting back the rows the writer replaced, if it
// began.
func (w *resultsWriter) fail(err error) error {
	if !w.begun {
		return err
	}
	if rerr := w.restore(); rerr != nil {
		return fmt.Errorf("%w (and putting back the campaign's earlier results failed: %v)", err, rerr)
	}
	return err
}

// restore deletes the campaign's rows and inserts the ones begin deleted.
func (w *resultsWriter) restore() error {
	if _, err := w.db.Exec(`DELETE FROM AnalysisResults WHERE campaignName = ?`, sqldb.Text(w.campaign)); err != nil {
		return err
	}
	for rest := w.old; len(rest) > 0; {
		batch := rest[:min(resultsBatch, len(rest))]
		rest = rest[len(batch):]
		w.args = w.args[:0]
		for _, row := range batch {
			w.args = append(w.args, row...)
		}
		if _, err := w.db.Exec(w.insertSQL(len(batch)), w.args...); err != nil {
			return err
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
// and return the report. The AnalysisResults rows are written while the
// pass classifies: each resultsBatch details go to a writer goroutine as
// soon as they are classified, and the first batch's arrival sets off the
// table, index and DELETE statements, so the statements and their order
// are those of writing the finished report. A pass that fails leaves the
// campaign's AnalysisResults rows as they were: one that fails before its
// first batch has written nothing, a later failure has the writer's rows
// replaced by the earlier ones again. Passes over one campaign take turns
// (Store.LockResults).
func AnalyzeAndStore(store *campaign.Store, campaignName string) (*Report, error) {
	a, err := New(store, campaignName)
	if err != nil {
		return nil, err
	}
	defer store.LockResults(campaignName)()
	w := newResultsWriter(store.DB(), campaignName)
	// A few batches of slack, so that one slow INSERT does not hold up
	// the pass; a batch is a window of the report's Details and costs
	// nothing to queue.
	batches := make(chan []Details, 8)
	written := make(chan error, 1)
	go func() {
		var err error
		for batch := range batches {
			if err == nil && !w.begun {
				err = w.begin()
			}
			if err == nil && len(batch) > 0 {
				err = w.insert(batch)
			}
		}
		written <- err
	}()
	rep, err := a.run(func(batch []Details) { batches <- batch })
	if err == nil {
		batches <- rep.Details[len(rep.Details)/resultsBatch*resultsBatch:]
	}
	close(batches)
	if werr := <-written; err == nil {
		err = werr
	}
	if err != nil {
		return nil, w.fail(err)
	}
	return rep, nil
}
