package campaign

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"goofi/internal/sqldb"
)

// Store persists target systems, campaigns and logged experiments in the
// three-table schema of paper Fig 4, with foreign keys preventing
// inconsistencies: CampaignData references TargetSystemData, and
// LoggedSystemState references CampaignData.
type Store struct {
	db *sqldb.DB
	// inserts holds the prepared LoggedSystemState INSERT of n rows at
	// n-1, for n up to QueueRows, each made when first used: the statement
	// on the storage hot path, one per batch size, so that no batch's SQL
	// is formatted, parsed or looked up again.
	insertMu sync.Mutex
	inserts  [QueueRows]*sqldb.Stmt
	// putCursor is the prepared UPDATE of a campaign's cursor row.
	putCursor *sqldb.Stmt
	// results holds the campaigns whose results a LockResults caller is
	// writing, each with how many callers hold or wait for its lock.
	resultsMu sync.Mutex
	results   map[string]*resultsLock
}

type resultsLock struct {
	sync.Mutex
	users int
}

// Schema is the DDL of the GOOFI database (Fig 4). Exposed so tools can
// print it.
var Schema = []string{
	`CREATE TABLE IF NOT EXISTS TargetSystemData (
		targetName   TEXT PRIMARY KEY,
		testCardName TEXT NOT NULL,
		config       BLOB NOT NULL
	)`,
	`CREATE TABLE IF NOT EXISTS CampaignData (
		campaignName TEXT PRIMARY KEY,
		targetName   TEXT NOT NULL,
		testCardName TEXT,
		config       BLOB NOT NULL,
		FOREIGN KEY (targetName) REFERENCES TargetSystemData (targetName)
	)`,
	`CREATE TABLE IF NOT EXISTS LoggedSystemState (
		experimentName   TEXT PRIMARY KEY,
		parentExperiment TEXT,
		campaignName     TEXT NOT NULL,
		step             INTEGER NOT NULL,
		experimentData   BLOB NOT NULL,
		stateVector      BLOB NOT NULL,
		FOREIGN KEY (campaignName) REFERENCES CampaignData (campaignName)
	)`,
	// Trace() resolves detail steps by parent experiment; campaignName
	// lookups ride the automatic foreign-key index.
	`CREATE INDEX IF NOT EXISTS LoggedSystemStateByParent
		ON LoggedSystemState (parentExperiment)`,
	// Durable campaign cursor for crash recovery (see checkpoint.go).
	checkpointDDL,
	// Campaign phase spans from the telemetry tracer (see telemetry.go).
	telemetryDDL,
}

// NewStore initialises the schema on the given database and returns a
// store over it.
func NewStore(db *sqldb.DB) (*Store, error) {
	for _, ddl := range Schema {
		if _, err := db.Exec(ddl); err != nil {
			return nil, fmt.Errorf("campaign: init schema: %w", err)
		}
	}
	put, err := db.Prepare(updateCursorSQL)
	if err != nil {
		return nil, fmt.Errorf("campaign: prepare cursor update: %w", err)
	}
	return &Store{db: db, putCursor: put, results: make(map[string]*resultsLock)}, nil
}

// LockResults waits until no other caller holds the campaign's results
// lock, takes it and returns its release. The analysis phase holds it
// while it replaces the campaign's AnalysisResults rows: a daemon may
// analyze one campaign for two requests at once, and two writers
// interleaving their DELETE and INSERTs, or one putting back rows the
// other deleted, would leave rows of neither pass.
func (s *Store) LockResults(campaignName string) (unlock func()) {
	s.resultsMu.Lock()
	l := s.results[campaignName]
	if l == nil {
		l = &resultsLock{}
		s.results[campaignName] = l
	}
	l.users++
	s.resultsMu.Unlock()
	l.Lock()
	return func() {
		l.Unlock()
		s.resultsMu.Lock()
		if l.users--; l.users == 0 {
			delete(s.results, campaignName)
		}
		s.resultsMu.Unlock()
	}
}

// DB exposes the underlying database for the analysis phase, which runs
// user SQL against LoggedSystemState (paper §3.4).
func (s *Store) DB() *sqldb.DB { return s.db }

// PutTargetSystem inserts or replaces a target system configuration.
func (s *Store) PutTargetSystem(t *TargetSystemData) error {
	if err := t.Validate(); err != nil {
		return err
	}
	cfg, err := json.Marshal(t)
	if err != nil {
		return fmt.Errorf("campaign: marshal target %q: %w", t.Name, err)
	}
	n, err := s.db.Exec(`UPDATE TargetSystemData SET testCardName = ?, config = ? WHERE targetName = ?`,
		sqldb.Text(t.TestCardName), sqldb.Blob(cfg), sqldb.Text(t.Name))
	if err != nil {
		return err
	}
	if n == 0 {
		_, err = s.db.Exec(`INSERT INTO TargetSystemData VALUES (?, ?, ?)`,
			sqldb.Text(t.Name), sqldb.Text(t.TestCardName), sqldb.Blob(cfg))
	}
	return err
}

// GetTargetSystem loads a target system configuration by name.
func (s *Store) GetTargetSystem(name string) (*TargetSystemData, error) {
	r, err := s.db.Query(`SELECT config FROM TargetSystemData WHERE targetName = ?`, sqldb.Text(name))
	if err != nil {
		return nil, err
	}
	if len(r.Rows) == 0 {
		return nil, fmt.Errorf("campaign: no target system %q", name)
	}
	var t TargetSystemData
	if err := json.Unmarshal(r.Rows[0][0].B, &t); err != nil {
		return nil, fmt.Errorf("campaign: unmarshal target %q: %w", name, err)
	}
	return &t, nil
}

// ListTargetSystems returns the configured target system names.
func (s *Store) ListTargetSystems() ([]string, error) {
	r, err := s.db.Query(`SELECT targetName FROM TargetSystemData ORDER BY targetName`)
	if err != nil {
		return nil, err
	}
	return textColumn(r, 0), nil
}

// PutCampaign inserts or replaces a campaign definition. The referenced
// target system must exist (foreign key).
func (s *Store) PutCampaign(c *Campaign) error {
	if err := c.Validate(); err != nil {
		return err
	}
	cfg, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("campaign: marshal campaign %q: %w", c.Name, err)
	}
	ts, err := s.GetTargetSystem(c.TargetName)
	if err != nil {
		return fmt.Errorf("campaign %q: %w", c.Name, err)
	}
	n, err := s.db.Exec(`UPDATE CampaignData SET targetName = ?, testCardName = ?, config = ? WHERE campaignName = ?`,
		sqldb.Text(c.TargetName), sqldb.Text(ts.TestCardName), sqldb.Blob(cfg), sqldb.Text(c.Name))
	if err != nil {
		return err
	}
	if n == 0 {
		_, err = s.db.Exec(`INSERT INTO CampaignData VALUES (?, ?, ?, ?)`,
			sqldb.Text(c.Name), sqldb.Text(c.TargetName), sqldb.Text(ts.TestCardName), sqldb.Blob(cfg))
	}
	return err
}

// GetCampaign loads a campaign definition by name.
func (s *Store) GetCampaign(name string) (*Campaign, error) {
	r, err := s.db.Query(`SELECT config FROM CampaignData WHERE campaignName = ?`, sqldb.Text(name))
	if err != nil {
		return nil, err
	}
	if len(r.Rows) == 0 {
		return nil, fmt.Errorf("campaign: no campaign %q", name)
	}
	var c Campaign
	if err := json.Unmarshal(r.Rows[0][0].B, &c); err != nil {
		return nil, fmt.Errorf("campaign: unmarshal campaign %q: %w", name, err)
	}
	return &c, nil
}

// ListCampaigns returns all campaign names.
func (s *Store) ListCampaigns() ([]string, error) {
	r, err := s.db.Query(`SELECT campaignName FROM CampaignData ORDER BY campaignName`)
	if err != nil {
		return nil, err
	}
	return textColumn(r, 0), nil
}

// MergeCampaigns combines earlier campaigns into a new one (paper §3.2:
// the user "may ... merge campaign data from several fault injection
// campaigns into a new fault injection campaign"). The first source
// provides the base configuration; locations are unioned and experiment
// counts summed. All sources must share a target system and workload.
func (s *Store) MergeCampaigns(newName string, sources ...string) (*Campaign, error) {
	if len(sources) < 2 {
		return nil, fmt.Errorf("campaign: merge needs at least two sources")
	}
	base, err := s.GetCampaign(sources[0])
	if err != nil {
		return nil, err
	}
	merged := *base
	merged.Name = newName
	seen := make(map[string]bool)
	for _, l := range merged.Locations {
		seen[l] = true
	}
	for _, src := range sources[1:] {
		c, err := s.GetCampaign(src)
		if err != nil {
			return nil, err
		}
		if c.TargetName != merged.TargetName {
			return nil, fmt.Errorf("campaign: merge across target systems (%q vs %q)",
				c.TargetName, merged.TargetName)
		}
		if c.Workload.Name != merged.Workload.Name {
			return nil, fmt.Errorf("campaign: merge across workloads (%q vs %q)",
				c.Workload.Name, merged.Workload.Name)
		}
		for _, l := range c.Locations {
			if !seen[l] {
				seen[l] = true
				merged.Locations = append(merged.Locations, l)
			}
		}
		merged.NumExperiments += c.NumExperiments
	}
	if err := s.PutCampaign(&merged); err != nil {
		return nil, err
	}
	return &merged, nil
}

// Row is one LoggedSystemState row in stored form: the six column values
// in schema order (experimentName, parentExperiment, campaignName, step,
// experimentData, stateVector), the two BLOBs already encoded. A row is
// encoded once — by EncodeRow on a shard worker, which ships it in a
// report — and the store it reaches inserts these same bytes. (A sink's
// writer encodes its records straight into the values the store keeps,
// rowEncoder, the same bytes again.) Seq is the sequence number of an
// end-of-experiment row (negative for the reference run), which the merge
// filters on without opening experimentData; on a detail-mode step row it
// means nothing, the row travels with its parent.
type Row struct {
	Seq  int
	Cols [6]sqldb.Value
}

// Name returns the experimentName column.
func (r *Row) Name() string { return r.Cols[0].S }

// Parent returns the parentExperiment column, "" for NULL.
func (r *Row) Parent() string { return r.Cols[1].S }

// Campaign returns the campaignName column.
func (r *Row) Campaign() string { return r.Cols[2].S }

// Step returns the step column: -1 for an end-of-experiment row.
func (r *Row) Step() int { return int(r.Cols[3].I) }

// EncodeRow flattens a record into its stored form. The state goes in
// relative to r.Ref when there is one to go against: the end row of an
// experiment that ran (endOfExperiment), whose state has the reference's
// shape or is given as a difference from it (FromRef). The reference row
// itself, a detail-mode step row, an invalid run (it has no state) and any
// record without a Ref — every row of a nondeterministic target, whose
// shard workers' references need not agree — are stored whole. A FromRef
// record has no whole state to store: one that cannot go relative, or
// whose difference the relative form cannot hold, is the one error.
func EncodeRow(r *ExperimentRecord) (Row, error) {
	buf, n, err := appendBlobs(make([]byte, 0, 512), r)
	if err != nil {
		return Row{}, err
	}
	row := Row{Seq: r.Data.Seq}
	setCols(row.Cols[:], r, buf[:n:n], buf[n:len(buf):len(buf)])
	return row, nil
}

// appendBlobs appends r's two blobs, experimentData and then stateVector,
// to buf and returns it with the offset at which the stateVector starts.
// On an error buf is as it came.
func appendBlobs(buf []byte, r *ExperimentRecord) ([]byte, int, error) {
	if r.scanShared {
		// A record as EachExperiment yields it: its scan is still the
		// reference's, and what it logs is that with the bits applied.
		whole := *r
		whole.applyScanDiff()
		r = &whole
	}
	if r.FromRef {
		if err := r.checkFromRef(); err != nil {
			return buf, 0, err
		}
	}
	buf = r.Data.appendJSON(buf)
	n := len(buf)
	relative := false
	if r.Ref != nil && r.endOfExperiment() {
		buf, relative = r.appendRelative(buf)
	}
	if relative {
		mRowsRelative.Inc()
	} else {
		buf = r.State.appendJSON(buf)
		mRowsAbsolute.Inc()
	}
	mStateBytes.Add(uint64(len(buf) - n))
	return buf, n, nil
}

// setCols fills the six values of r's row, in schema order, with data and
// state as its two blobs.
func setCols(cols []sqldb.Value, r *ExperimentRecord, data, state []byte) {
	parent := sqldb.Null()
	if r.Parent != "" {
		parent = sqldb.Text(r.Parent)
	}
	cols[0], cols[1], cols[2] = sqldb.Text(r.Name), parent, sqldb.Text(r.Campaign)
	cols[3], cols[4], cols[5] = sqldb.Int(int64(r.Step)), sqldb.Blob(data), sqldb.Blob(state)
}

// DecodeRow is EncodeRow's inverse for a row outside a store — a shard
// worker's kept reference row. ref is the reference a relative row was
// encoded against; nil decodes absolute rows only.
func DecodeRow(row *Row, ref *Reference) (*ExperimentRecord, error) {
	return decodeWhole(row.Cols[:], func(campaignName string) (*Reference, error) {
		if ref == nil {
			return nil, fmt.Errorf("campaign: no reference run of campaign %q at hand", campaignName)
		}
		return ref, nil
	})
}

// rowWidth is how many values a LoggedSystemState row has.
const rowWidth = len(Row{}.Cols)

// rowEncoder turns batches of records into rows as the store's prepared
// INSERT takes them. It encodes a batch's blobs into scratch, which it
// keeps from batch to batch, and copies them once into one allocation of
// exactly their size, which the stored rows keep; a batch's values are one
// slice, which the INSERT adopts as the table's rows. A cursor's JSON goes
// through scratch the same way. An encoder is one writer's: each
// BatchingSink has its own, and the Store lends one from encoders to a
// caller that writes through it directly.
type rowEncoder struct {
	scratch []byte
	ends    []int // per record, where its experimentData and its stateVector end in scratch
}

var encoders = sync.Pool{New: func() any { return new(rowEncoder) }}

// encode returns the values of recs' rows, rowWidth a record.
func (e *rowEncoder) encode(recs []*ExperimentRecord) ([]sqldb.Value, error) {
	buf, ends := e.scratch[:0], e.ends[:0]
	for _, r := range recs {
		var n int
		var err error
		if buf, n, err = appendBlobs(buf, r); err != nil {
			return nil, err
		}
		ends = append(ends, n, len(buf))
	}
	e.scratch, e.ends = buf, ends
	blobs := make([]byte, len(buf))
	copy(blobs, buf)
	vals := make([]sqldb.Value, len(recs)*rowWidth)
	start := 0
	for i, r := range recs {
		n, end := ends[2*i], ends[2*i+1]
		setCols(vals[i*rowWidth:(i+1)*rowWidth], r, blobs[start:n:n], blobs[n:end:end])
		start = end
	}
	return vals, nil
}

// insertSQL is the INSERT of n LoggedSystemState rows, all values
// parameters — the text every write of rows has logged.
func insertSQL(n int) string {
	var sb strings.Builder
	sb.WriteString(`INSERT INTO LoggedSystemState VALUES `)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(`(?, ?, ?, ?, ?, ?)`)
	}
	return sb.String()
}

// insertStmt returns the prepared INSERT of n rows: the one kept for n, or
// for more rows than Store.inserts has room for, one prepared now.
func (s *Store) insertStmt(n int) (*sqldb.Stmt, error) {
	if n > len(s.inserts) {
		return s.db.Prepare(insertSQL(n))
	}
	s.insertMu.Lock()
	defer s.insertMu.Unlock()
	if s.inserts[n-1] == nil {
		st, err := s.db.Prepare(insertSQL(n))
		if err != nil {
			return nil, err
		}
		s.inserts[n-1] = st
	}
	return s.inserts[n-1], nil
}

// insertValues stores rows given as their values, rowWidth a row in schema
// order, with one multi-row INSERT: one lock acquisition, one constraint
// pass and one log record a batch. The table keeps vals as its rows.
func (s *Store) insertValues(vals []sqldb.Value) error {
	n := len(vals) / rowWidth
	if n == 0 {
		return nil
	}
	start := time.Now()
	st, err := s.insertStmt(n)
	if err == nil {
		_, err = st.Exec(vals...)
	}
	mInsertSeconds.Observe(time.Since(start).Seconds())
	return err
}

// InsertRows stores LoggedSystemState rows as they are, without encoding
// anything — a shard worker's report — through the prepared INSERT of
// their number, each row's values copied once into the slice it adopts.
func (s *Store) InsertRows(rows []Row) error {
	vals := make([]sqldb.Value, 0, len(rows)*rowWidth)
	for i := range rows {
		vals = append(vals, rows[i].Cols[:]...)
	}
	return s.insertValues(vals)
}

// logBatch encodes recs with e and stores their rows. This is the storage
// hot path: per row one encode and one copy of its blobs, and no copy of
// its values.
func (s *Store) logBatch(e *rowEncoder, recs []*ExperimentRecord) error {
	vals, err := e.encode(recs)
	if err != nil {
		return err
	}
	return s.insertValues(vals)
}

// LogExperiment stores one LoggedSystemState row.
func (s *Store) LogExperiment(r *ExperimentRecord) error {
	return s.LogExperimentBatch([]*ExperimentRecord{r})
}

// LogExperimentBatch encodes and stores many LoggedSystemState rows, with
// an encoder borrowed from the pool.
func (s *Store) LogExperimentBatch(recs []*ExperimentRecord) error {
	e := encoders.Get().(*rowEncoder)
	defer encoders.Put(e)
	return s.logBatch(e, recs)
}

// Flush makes Store satisfy core.ResultSink. Writes are synchronous, so
// there is nothing to flush.
func (s *Store) Flush() error { return nil }

// readPass is one read of the store, whose rows decodeRow decodes. A row
// stored relative needs its campaign's reference state: the pass resolves
// it at the first such row — from the reference row, unless the pass has
// already decoded that row itself — and keeps it, or the error resolving it
// failed with, for the rest.
type readPass struct {
	s   *Store
	ref *Reference
	err error
}

func (p *readPass) reference(campaignName string) (*Reference, error) {
	if p.ref == nil && p.err == nil {
		p.ref, p.err = p.s.reference(campaignName)
	}
	return p.ref, p.err
}

// reference reads a campaign's reference state off its reference row.
func (s *Store) reference(campaignName string) (*Reference, error) {
	r, err := s.db.Query(`SELECT stateVector FROM LoggedSystemState WHERE experimentName = ?`,
		sqldb.Text(ReferenceName(campaignName)))
	if err != nil {
		return nil, err
	}
	if len(r.Rows) == 0 {
		return nil, fmt.Errorf("campaign: campaign %q has no reference row", campaignName)
	}
	var sv StateVector
	if err := decodeStateVector(r.Rows[0][0].B, &sv); err != nil {
		return nil, fmt.Errorf("campaign: reference row of campaign %q: %w", campaignName, err)
	}
	return NewReference(&sv), nil
}

// GetExperiment loads one LoggedSystemState row by experiment name.
func (s *Store) GetExperiment(name string) (*ExperimentRecord, error) {
	r, err := s.db.Query(`SELECT experimentName, parentExperiment, campaignName, step, experimentData, stateVector
		FROM LoggedSystemState WHERE experimentName = ?`, sqldb.Text(name))
	if err != nil {
		return nil, err
	}
	if len(r.Rows) == 0 {
		return nil, fmt.Errorf("campaign: no experiment %q", name)
	}
	return decodeWhole(r.Rows[0], (&readPass{s: s}).reference)
}

// decodeChunk is how many rows an EachExperiment worker decodes at a time:
// a few hundred microseconds of work, so that handing a chunk over costs
// next to nothing, and few enough that the records decoded ahead stay a
// small window of the pass.
const decodeChunk = 64

// EachExperiment calls fn with the end-of-experiment records of a campaign
// one at a time, excluding detail-mode trace steps, in sequence order: the
// reference run (its sequence number is negative) first, then ascending
// Data.Seq, the experiment name breaking ties (a re-run carries the
// sequence number of the experiment it repeats). The order is by number,
// not by name: names pad to five digits, so exp100000 sorts before
// exp10001. fn runs on the caller's goroutine, one record after the other;
// the records are decoded ahead of it by one goroutine per GOMAXPROCS, a
// chunk of decodeChunk rows at a time, each worker at most two chunks
// ahead — so a pass holds a bounded window of records, not the campaign's,
// besides the reference run's. Every record of a row stored relative
// shares the reference's unchanged Memory and Outputs values, and its
// scan: State.Scan is the reference's own, with the bits that differ in
// ScanDiff (ScanState applies them). Nothing may change a record. The
// first error in that order ends the pass and is returned: fn's, or the
// one decoding the row it would have been called with next. With
// GOMAXPROCS 1 nothing runs beside the caller.
func (s *Store) EachExperiment(campaignName string, fn func(*ExperimentRecord) error) error {
	r, err := s.db.Query(`SELECT experimentName, parentExperiment, campaignName, step, experimentData, stateVector
		FROM LoggedSystemState WHERE campaignName = ? AND step = -1`,
		sqldb.Text(campaignName))
	if err != nil {
		return err
	}
	seqs := make([]int, len(r.Rows))
	order := make([]int, len(r.Rows))
	for i, row := range r.Rows {
		order[i] = i
		if seqs[i], err = peekSeq(row[4].B); err != nil {
			return err
		}
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if seqs[i] != seqs[j] {
			return seqs[i] < seqs[j]
		}
		return r.Rows[i][0].S < r.Rows[j][0].S
	})
	// The reference run's row and any numbered below it, which only a
	// damaged store holds, are read here: the rows after it are decoded
	// against its state.
	pass := readPass{s: s}
	refName := ReferenceName(campaignName)
	head := 0
	for k, i := range order {
		if r.Rows[i][0].S == refName {
			head = k + 1
			break
		}
	}
	for _, i := range order[:head] {
		rec, err := decodeRow(r.Rows[i], pass.reference)
		if err != nil {
			return err
		}
		if rec.Name == refName {
			pass.ref, pass.err = NewReference(&rec.State), nil
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return pass.each(campaignName, r.Rows, order[head:], fn)
}

// decoded is one chunk of a pass's rows, decoded in order up to the first
// that failed, err.
type decoded struct {
	recs []*ExperimentRecord
	err  error
}

// each decodes the rows order lists and calls fn with them in that order:
// on the calling goroutine alone when there is one CPU or one chunk, else
// with up to GOMAXPROCS workers decoding ahead, worker w taking chunks w,
// w+workers, w+2*workers and so on, and handing each over on a channel of
// its own, so that the caller reads the chunks back in order.
func (p *readPass) each(campaignName string, rows [][]sqldb.Value, order []int, fn func(*ExperimentRecord) error) error {
	chunks := (len(order) + decodeChunk - 1) / decodeChunk
	workers := min(runtime.GOMAXPROCS(0), chunks)
	if workers <= 1 {
		for _, i := range order {
			rec, err := decodeRow(rows[i], p.reference)
			if err != nil {
				return err
			}
			if err := fn(rec); err != nil {
				return err
			}
		}
		return nil
	}
	// The workers share the reference and must not resolve it: a pass
	// whose reference row is not among its rows resolves it now, and only
	// the rows that need it see the error that may give.
	_, _ = p.reference(campaignName)
	outs := make([]chan decoded, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := range outs {
		outs[w] = make(chan decoded, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := w; c < chunks; c += workers {
				d := decoded{recs: make([]*ExperimentRecord, 0, decodeChunk)}
				for _, i := range order[c*decodeChunk : min((c+1)*decodeChunk, len(order))] {
					rec, err := decodeRow(rows[i], p.reference)
					if err != nil {
						d.err = err
						break
					}
					d.recs = append(d.recs, rec)
				}
				select {
				case outs[w] <- d:
				case <-stop:
					return
				}
				if d.err != nil {
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for c := range chunks {
		d := <-outs[c%workers]
		for _, rec := range d.recs {
			if err := fn(rec); err != nil {
				return err
			}
		}
		if d.err != nil {
			return d.err
		}
	}
	return nil
}

// Experiments collects what EachExperiment yields, each record with a scan
// of its own: a row stored relative comes back with its ScanDiff bits
// applied to a copy of the reference's.
func (s *Store) Experiments(campaignName string) ([]*ExperimentRecord, error) {
	out := []*ExperimentRecord{}
	err := s.EachExperiment(campaignName, func(rec *ExperimentRecord) error {
		rec.applyScanDiff()
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CountExperiments returns how many records EachExperiment would yield,
// without decoding any.
func (s *Store) CountExperiments(campaignName string) (int, error) {
	r, err := s.db.Query(`SELECT COUNT(*) FROM LoggedSystemState WHERE campaignName = ? AND step = -1`,
		sqldb.Text(campaignName))
	if err != nil {
		return 0, err
	}
	return int(r.Rows[0][0].I), nil
}

// StoredBytes returns the column bytes of the rows CountExperiments
// counts: what a campaign's end-of-experiment rows cost to keep.
func (s *Store) StoredBytes(campaignName string) (int64, error) {
	r, err := s.db.Query(`SELECT experimentName, parentExperiment, campaignName, experimentData, stateVector
		FROM LoggedSystemState WHERE campaignName = ? AND step = -1`, sqldb.Text(campaignName))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, row := range r.Rows {
		n += 8 // step
		for _, v := range row {
			n += int64(len(v.S) + len(v.B))
		}
	}
	return n, nil
}

// Trace returns the detail-mode per-instruction records of one experiment
// in step order.
func (s *Store) Trace(experimentName string) ([]*ExperimentRecord, error) {
	r, err := s.db.Query(`SELECT experimentName, parentExperiment, campaignName, step, experimentData, stateVector
		FROM LoggedSystemState WHERE parentExperiment = ? AND step >= 0 ORDER BY step`,
		sqldb.Text(experimentName))
	if err != nil {
		return nil, err
	}
	out := make([]*ExperimentRecord, 0, len(r.Rows))
	pass := readPass{s: s}
	for _, row := range r.Rows {
		rec, err := decodeWhole(row, pass.reference)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// DeleteExperiments removes all logged state of a campaign (for re-runs).
// Derived analysis rows referencing the logged experiments are removed
// first, so the foreign keys cannot block the re-run.
func (s *Store) DeleteExperiments(campaignName string) error {
	for _, t := range s.db.TableNames() {
		if t == "AnalysisResults" {
			if _, err := s.db.Exec(`DELETE FROM AnalysisResults WHERE campaignName = ?`,
				sqldb.Text(campaignName)); err != nil {
				return err
			}
		}
	}
	_, err := s.db.Exec(`DELETE FROM LoggedSystemState WHERE campaignName = ?`, sqldb.Text(campaignName))
	return err
}

// DeleteRun removes everything an earlier run of the campaign left in the
// store — its resume cursor, its logged state and its phase spans — so
// the next run starts from a clean slate. The definition stays.
func (s *Store) DeleteRun(campaignName string) error {
	if err := s.DeleteCheckpoint(campaignName); err != nil {
		return err
	}
	if err := s.DeleteExperiments(campaignName); err != nil {
		return err
	}
	return s.DeleteTelemetry(campaignName)
}

// DeleteExperiment removes one experiment's logged state (and any
// detail-mode trace rows parented to it) so the experiment can be
// re-attempted — `goofi resume -retry-invalid` uses this to clear
// invalid-run records before resuming. A reference row that other rows are
// stored relative to stays: without it they could not be read. (DeleteRun
// and DeleteExperiments remove a campaign's rows all together.)
func (s *Store) DeleteExperiment(name string) error {
	r, err := s.db.Query(`SELECT campaignName FROM LoggedSystemState WHERE experimentName = ?`, sqldb.Text(name))
	if err != nil {
		return err
	}
	if len(r.Rows) == 1 && name == ReferenceName(r.Rows[0][0].S) {
		campaignName := r.Rows[0][0].S
		if r, err = s.db.Query(`SELECT stateVector FROM LoggedSystemState WHERE campaignName = ? AND step = -1`,
			sqldb.Text(campaignName)); err != nil {
			return err
		}
		for _, row := range r.Rows {
			if isRelative(row[0].B) {
				return fmt.Errorf("campaign: reference run %q stays: rows of campaign %q are stored relative to it",
					name, campaignName)
			}
		}
	}
	if _, err := s.db.Exec(`DELETE FROM LoggedSystemState WHERE parentExperiment = ?`,
		sqldb.Text(name)); err != nil {
		return err
	}
	_, err = s.db.Exec(`DELETE FROM LoggedSystemState WHERE experimentName = ?`, sqldb.Text(name))
	return err
}

// decodeWhole is decodeRow with the differing scan bits of a row stored
// relative applied: the record every read but EachExperiment returns.
func decodeWhole(row []sqldb.Value, reference func(campaignName string) (*Reference, error)) (*ExperimentRecord, error) {
	rec, err := decodeRow(row, reference)
	if err != nil {
		return nil, err
	}
	rec.applyScanDiff()
	return rec, nil
}

// decodeRow decodes one LoggedSystemState row. reference resolves the
// reference state of the row's campaign and is asked only for a row stored
// relative; such a row's record keeps the reference's scan, its differing
// bits listed in ScanDiff but not applied. This is where the integrity of
// the relative form is stated: a relative row without a reference, or
// encoded against another reference than the one found, is an error
// naming the experiment and the campaign — never a state put together
// from the wrong base.
func decodeRow(row []sqldb.Value, reference func(campaignName string) (*Reference, error)) (*ExperimentRecord, error) {
	rec := &ExperimentRecord{
		Name:     row[0].S,
		Campaign: row[2].S,
		Step:     int(row[3].I),
	}
	if !row[1].IsNull() {
		rec.Parent = row[1].S
	}
	if err := decodeExperimentData(row[4].B, &rec.Data); err != nil {
		return nil, err
	}
	state := row[5].B
	if !isRelative(state) {
		if err := decodeStateVector(state, &rec.State); err != nil {
			return nil, err
		}
		return rec, nil
	}
	ref, err := reference(rec.Campaign)
	if err != nil {
		return nil, fmt.Errorf("campaign: experiment %q is stored relative to the reference run of campaign %q: %w",
			rec.Name, rec.Campaign, err)
	}
	if len(state) >= relativeHeader {
		if sum := binary.LittleEndian.Uint32(state[1:]); sum != ref.sum {
			return nil, fmt.Errorf("campaign: experiment %q is stored relative to another reference run than campaign %q holds (checksum %08x, the reference row's %08x)",
				rec.Name, rec.Campaign, sum, ref.sum)
		}
	}
	var ok bool
	if rec.ScanDiff, ok = parseRelative(state, ref, &rec.State); !ok {
		return nil, fmt.Errorf("campaign: experiment %q of campaign %q: damaged relative state vector",
			rec.Name, rec.Campaign)
	}
	rec.Ref, rec.scanShared = ref, len(rec.ScanDiff) > 0
	return rec, nil
}

func textColumn(r *sqldb.Result, i int) []string {
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		out = append(out, row[i].S)
	}
	return out
}
