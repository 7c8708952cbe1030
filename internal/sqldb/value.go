// Package sqldb is an embedded relational database engine, GOOFI's
// campaign and results store. The paper stores all tool data in "a SQL
// compatible database" (three tables linked by foreign keys, Fig 4); this
// package provides that substrate with exactly the SQL GOOFI's own code
// sends — no command takes SQL from a user:
//
//   - CREATE TABLE [IF NOT EXISTS] with INTEGER, TEXT and BLOB columns,
//     column-level PRIMARY KEY and NOT NULL, and FOREIGN KEY ... REFERENCES
//     the referenced table's primary key; CREATE INDEX [IF NOT EXISTS];
//   - INSERT INTO t VALUES (...), one or more rows, a value for every column;
//   - SELECT [DISTINCT] from one table with WHERE, GROUP BY, ORDER BY and
//     LIMIT, each item `*`, an expression or a COUNT/SUM/AVG/MIN/MAX call,
//     optionally AS an alias;
//   - UPDATE ... SET ... WHERE and DELETE FROM ... WHERE;
//   - expressions of integer and 'text' literals, `?` parameters, columns,
//     unary minus, the six comparisons and AND.
//
// Every statement is checked against the schema's NOT NULL, column kinds,
// primary keys and foreign keys, and the database persists as a snapshot
// image plus a write-ahead log of statements.
package sqldb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind is the runtime type of a Value.
type Kind uint8

// Value kinds.
const (
	KNull Kind = iota
	KInt
	KReal
	KText
	KBlob
)

// String returns the SQL type name for the kind.
func (k Kind) String() string {
	switch k {
	case KNull:
		return "NULL"
	case KInt:
		return "INTEGER"
	case KReal:
		return "REAL"
	case KText:
		return "TEXT"
	case KBlob:
		return "BLOB"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is one SQL value. The zero value is NULL. A REAL keeps its
// math.Float64bits in I: only AVG and SUM, or a caller passing one in,
// make one, and a field of its own would cost every stored value 8 bytes.
type Value struct {
	K Kind
	I int64
	S string
	B []byte
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an INTEGER value.
func Int(i int64) Value { return Value{K: KInt, I: i} }

// Real returns a REAL value.
func Real(r float64) Value { return Value{K: KReal, I: int64(math.Float64bits(r))} }

// Float returns a REAL value's number; it means nothing for another kind.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.I)) }

// Text returns a TEXT value.
func Text(s string) Value { return Value{K: KText, S: s} }

// Blob returns a BLOB value (the bytes are not copied).
func Blob(b []byte) Value { return Value{K: KBlob, B: b} }

// Bool returns an INTEGER 0/1 value, the SQL convention for booleans.
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.K == KNull }

// Truth reports the SQL truthiness of a value: non-zero numbers are true;
// NULL and everything else is false.
func (v Value) Truth() bool {
	switch v.K {
	case KInt:
		return v.I != 0
	case KReal:
		return v.Float() != 0
	default:
		return false
	}
}

// AsInt converts numeric values to int64.
func (v Value) AsInt() (int64, error) {
	switch v.K {
	case KInt:
		return v.I, nil
	case KReal:
		return int64(v.Float()), nil
	default:
		return 0, fmt.Errorf("sqldb: %s is not numeric", v.K)
	}
}

// String renders the value as a SQL literal.
func (v Value) String() string {
	switch v.K {
	case KNull:
		return "NULL"
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KReal:
		return fmt.Sprintf("%g", v.Float())
	case KText:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case KBlob:
		return fmt.Sprintf("x'%x'", v.B)
	default:
		return "?"
	}
}

// Compare orders two non-NULL values: -1, 0 or +1. Integers and reals
// compare numerically across kinds; other cross-kind comparisons are
// errors. NULL never compares equal to anything (callers handle NULL
// three-valued logic before calling Compare).
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		return 0, fmt.Errorf("sqldb: cannot compare NULL")
	}
	if (a.K == KInt || a.K == KReal) && (b.K == KInt || b.K == KReal) {
		if a.K == KInt && b.K == KInt {
			return cmpInt(a.I, b.I), nil
		}
		return cmpFloat(asFloat(a), asFloat(b)), nil
	}
	if a.K != b.K {
		return 0, fmt.Errorf("sqldb: cannot compare %s with %s", a.K, b.K)
	}
	switch a.K {
	case KText:
		return strings.Compare(a.S, b.S), nil
	case KBlob:
		return cmpBytes(a.B, b.B), nil
	default:
		return 0, fmt.Errorf("sqldb: cannot compare %s values", a.K)
	}
}

// asFloat widens a numeric value to float64.
func asFloat(v Value) float64 {
	if v.K == KInt {
		return float64(v.I)
	}
	return v.Float()
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return cmpInt(int64(len(a)), int64(len(b)))
}

// appendValueKey appends a value's unique key encoding. Text and blob
// values are length-prefixed so raw bytes need no quoting.
func appendValueKey(buf []byte, v Value) []byte {
	// Normalise ints and reals so 1 and 1.0 collide, as Compare finds
	// them equal: an index lookup must match what a full scan does.
	switch v.K {
	case KReal:
		if r := v.Float(); r == float64(int64(r)) {
			buf = append(buf, 'i', ':')
			buf = strconv.AppendInt(buf, int64(r), 10)
		} else {
			buf = append(buf, 'r', ':')
			buf = strconv.AppendFloat(buf, r, 'g', -1, 64)
		}
	case KInt:
		buf = append(buf, 'i', ':')
		buf = strconv.AppendInt(buf, v.I, 10)
	case KText:
		buf = append(buf, 't', ':')
		buf = strconv.AppendInt(buf, int64(len(v.S)), 10)
		buf = append(buf, ':')
		buf = append(buf, v.S...)
	case KBlob:
		buf = append(buf, 'b', ':')
		buf = strconv.AppendInt(buf, int64(len(v.B)), 10)
		buf = append(buf, ':')
		buf = append(buf, v.B...)
	default:
		buf = append(buf, 'n')
	}
	return append(buf, ';')
}

// keyString encodes a value tuple as a unique map key for indexes.
func keyString(vals []Value) string {
	buf := make([]byte, 0, 48)
	for _, v := range vals {
		buf = appendValueKey(buf, v)
	}
	return string(buf)
}

// keyBytes is room for the keys of the tables GOOFI keeps — a name or two
// and an integer — on the stack of whoever builds one.
const keyBytes = 128

// rowKey encodes the projection of a row onto the given column positions,
// without materialising the value tuple.
func rowKey(row []Value, colIdx []int) string {
	var buf [keyBytes]byte
	return string(appendRowKey(buf[:0], row, colIdx))
}

// appendRowKey appends rowKey's encoding to buf.
func appendRowKey(buf []byte, row []Value, colIdx []int) []byte {
	for _, ci := range colIdx {
		buf = appendValueKey(buf, row[ci])
	}
	return buf
}
