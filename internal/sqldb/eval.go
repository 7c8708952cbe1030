package sqldb

import (
	"fmt"
	"strings"
)

// evalCtx supplies column values and statement parameters to expression
// evaluation.
type evalCtx struct {
	table *Table
	row   []Value
	args  []Value
}

func (c *evalCtx) colValue(name string) (Value, error) {
	if c.table == nil || c.row == nil {
		return Value{}, fmt.Errorf("sqldb: column %q referenced outside a row context", name)
	}
	ci, err := c.table.colIndex(name)
	if err != nil {
		return Value{}, err
	}
	return c.row[ci], nil
}

func (c *evalCtx) param(idx int) (Value, error) {
	if idx >= len(c.args) {
		return Value{}, fmt.Errorf("sqldb: statement has %d parameter(s), %d argument(s) given",
			idx+1, len(c.args))
	}
	return c.args[idx], nil
}

// eval evaluates an expression in the given context. Aggregate calls
// never reach it: the aggregate executor accumulates them.
func eval(e Expr, c *evalCtx) (Value, error) {
	switch e := e.(type) {
	case *Lit:
		return e.V, nil
	case *Param:
		return c.param(e.Idx)
	case *ColRef:
		return c.colValue(e.Name)
	case *Neg:
		v, err := eval(e.X, c)
		if err != nil {
			return Value{}, err
		}
		switch v.K {
		case KNull:
			return Null(), nil
		case KInt:
			return Int(-v.I), nil
		case KReal:
			return Real(-v.Float()), nil
		default:
			return Value{}, fmt.Errorf("sqldb: cannot negate %s", v.K)
		}
	case *Binary:
		return evalBinary(e, c)
	default:
		return Value{}, fmt.Errorf("sqldb: unknown expression node %T", e)
	}
}

func evalBinary(e *Binary, c *evalCtx) (Value, error) {
	l, err := eval(e.L, c)
	if err != nil {
		return Value{}, err
	}
	// AND short-circuits; NULL behaves as false.
	if e.Op == "AND" && !l.Truth() {
		return Bool(false), nil
	}
	r, err := eval(e.R, c)
	if err != nil {
		return Value{}, err
	}
	if e.Op == "AND" {
		return Bool(r.Truth()), nil
	}
	if l.IsNull() || r.IsNull() {
		return Bool(false), nil
	}
	cmp, err := Compare(l, r)
	if err != nil {
		return Value{}, err
	}
	switch e.Op {
	case "=":
		return Bool(cmp == 0), nil
	case "!=":
		return Bool(cmp != 0), nil
	case "<":
		return Bool(cmp < 0), nil
	case "<=":
		return Bool(cmp <= 0), nil
	case ">":
		return Bool(cmp > 0), nil
	case ">=":
		return Bool(cmp >= 0), nil
	}
	return Value{}, fmt.Errorf("sqldb: unknown operator %q", e.Op)
}

// aggState accumulates one aggregate over a row group.
type aggState struct {
	fn       string
	count    int64
	sumI     int64
	sumR     float64
	isReal   bool
	min, max Value
}

func (s *aggState) add(v Value) error {
	if v.IsNull() {
		return nil // SQL aggregates skip NULLs
	}
	s.count++
	switch s.fn {
	case "COUNT":
	case "SUM", "AVG":
		switch v.K {
		case KInt:
			s.sumI += v.I
			s.sumR += float64(v.I)
		case KReal:
			s.isReal = true
			s.sumR += v.Float()
		default:
			return fmt.Errorf("sqldb: %s over non-numeric %s", s.fn, v.K)
		}
	case "MIN", "MAX":
		if s.count == 1 {
			s.min, s.max = v, v
			return nil
		}
		if c, err := Compare(v, s.min); err != nil {
			return err
		} else if c < 0 {
			s.min = v
		}
		if c, err := Compare(v, s.max); err != nil {
			return err
		} else if c > 0 {
			s.max = v
		}
	default:
		return fmt.Errorf("sqldb: unknown aggregate %s", s.fn)
	}
	return nil
}

func (s *aggState) addStar() { s.count++ }

func (s *aggState) result() Value {
	switch s.fn {
	case "COUNT":
		return Int(s.count)
	case "SUM":
		if s.count == 0 {
			return Null()
		}
		if s.isReal {
			return Real(s.sumR)
		}
		return Int(s.sumI)
	case "AVG":
		if s.count == 0 {
			return Null()
		}
		return Real(s.sumR / float64(s.count))
	case "MIN":
		if s.count == 0 {
			return Null()
		}
		return s.min
	case "MAX":
		if s.count == 0 {
			return Null()
		}
		return s.max
	}
	return Null()
}

// exprName derives a display column name for an expression.
func exprName(e Expr) string {
	switch e := e.(type) {
	case *ColRef:
		return e.Name
	case *Call:
		if e.Star {
			return strings.ToLower(e.Fn) + "(*)"
		}
		return strings.ToLower(e.Fn) + "(" + exprName(e.Arg) + ")"
	case *Lit:
		return e.V.String()
	default:
		return "expr"
	}
}
