package sqldb

import (
	"fmt"
	"strconv"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks   []token
	pos    int
	params int // number of ? placeholders seen
}

// Parse parses a single SQL statement.
func Parse(sql string) (Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	// Optional trailing semicolon.
	p.acceptSym(";")
	if p.cur().kind != tEOF {
		return nil, p.errf("unexpected %q after statement", p.cur().text)
	}
	return st, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sqldb: parse error at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) acceptKw(kw string) bool {
	if p.cur().kind == tKeyword && p.cur().text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, got %q", kw, p.cur().text)
	}
	return nil
}

func (p *parser) acceptSym(s string) bool {
	if p.cur().kind == tSymbol && p.cur().text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errf("expected %q, got %q", s, p.cur().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tIdent {
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *parser) statement() (Statement, error) {
	t := p.cur()
	if t.kind != tKeyword {
		return nil, p.errf("expected statement keyword, got %q", t.text)
	}
	switch t.text {
	case "CREATE":
		return p.createTable()
	case "INSERT":
		return p.insert()
	case "SELECT":
		return p.selectStmt()
	case "UPDATE":
		return p.update()
	case "DELETE":
		return p.delete()
	default:
		return nil, p.errf("unsupported statement %s", t.text)
	}
}

func parseType(kw string) (Kind, bool) {
	switch kw {
	case "INTEGER", "INT":
		return KInt, true
	case "TEXT":
		return KText, true
	case "BLOB":
		return KBlob, true
	}
	return 0, false
}

// list parses one item, then one more after each comma.
func (p *parser) list(item func() error) error {
	for {
		if err := item(); err != nil {
			return err
		}
		if !p.acceptSym(",") {
			return nil
		}
	}
}

// ifNotExists parses an optional IF NOT EXISTS.
func (p *parser) ifNotExists() (bool, error) {
	if !p.acceptKw("IF") {
		return false, nil
	}
	if err := p.expectKw("NOT"); err != nil {
		return false, err
	}
	return true, p.expectKw("EXISTS")
}

// where parses an optional WHERE clause.
func (p *parser) where() (Expr, error) {
	if !p.acceptKw("WHERE") {
		return nil, nil
	}
	return p.expr()
}

func (p *parser) createTable() (Statement, error) {
	p.next() // CREATE
	if p.acceptKw("INDEX") {
		return p.createIndex()
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	ct := &CreateTable{}
	var err error
	if ct.IfNotExists, err = p.ifNotExists(); err != nil {
		return nil, err
	}
	if ct.Name, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	err = p.list(func() error {
		if !p.acceptKw("FOREIGN") {
			col, err := p.columnDef()
			if err == nil {
				ct.Cols = append(ct.Cols, *col)
			}
			return err
		}
		var fk ForeignKey
		var err error
		if err = p.expectKw("KEY"); err != nil {
			return err
		}
		if fk.Cols, err = p.parenIdentList(); err != nil {
			return err
		}
		if err = p.expectKw("REFERENCES"); err != nil {
			return err
		}
		if fk.RefTable, err = p.ident(); err != nil {
			return err
		}
		if fk.RefCols, err = p.parenIdentList(); err != nil {
			return err
		}
		ct.Foreign = append(ct.Foreign, fk)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ct, p.expectSym(")")
}

func (p *parser) columnDef() (*ColumnDef, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind != tKeyword {
		return nil, p.errf("expected column type, got %q", t.text)
	}
	kind, ok := parseType(t.text)
	if !ok {
		return nil, p.errf("unknown column type %s", t.text)
	}
	p.pos++
	col := &ColumnDef{Name: name, Type: kind}
	for {
		switch {
		case p.acceptKw("PRIMARY"):
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			col.PK = true
			col.NotNull = true
		case p.acceptKw("NOT"):
			if err := p.expectKw("NULL"); err != nil {
				return nil, err
			}
			col.NotNull = true
		default:
			return col, nil
		}
	}
}

func (p *parser) parenIdentList() ([]string, error) {
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var cols []string
	err := p.list(func() error {
		c, err := p.ident()
		cols = append(cols, c)
		return err
	})
	if err != nil {
		return nil, err
	}
	return cols, p.expectSym(")")
}

// createIndex parses the tail of CREATE INDEX [IF NOT EXISTS] name ON
// table (col, ...); the CREATE INDEX keywords are already consumed.
func (p *parser) createIndex() (Statement, error) {
	ci := &CreateIndex{}
	var err error
	if ci.IfNotExists, err = p.ifNotExists(); err != nil {
		return nil, err
	}
	if ci.Name, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	if ci.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if ci.Cols, err = p.parenIdentList(); err != nil {
		return nil, err
	}
	return ci, nil
}

func (p *parser) insert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	ins := &Insert{}
	var err error
	if ins.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	err = p.list(func() error {
		if err := p.expectSym("("); err != nil {
			return err
		}
		var row []Expr
		err := p.list(func() error {
			e, err := p.expr()
			row = append(row, e)
			return err
		})
		if err != nil {
			return err
		}
		ins.Rows = append(ins.Rows, row)
		return p.expectSym(")")
	})
	if err != nil {
		return nil, err
	}
	return ins, nil
}

func (p *parser) selectStmt() (Statement, error) {
	p.next() // SELECT
	sel := &Select{Distinct: p.acceptKw("DISTINCT")}
	err := p.list(func() error {
		if p.acceptSym("*") {
			sel.Exprs = append(sel.Exprs, SelectExpr{Star: true})
			return nil
		}
		var se SelectExpr
		var err error
		if t := p.cur(); t.kind == tKeyword && aggregates[t.text] {
			se.E, err = p.call()
		} else {
			se.E, err = p.expr()
		}
		if err == nil && p.acceptKw("AS") {
			se.Alias, err = p.ident()
		}
		sel.Exprs = append(sel.Exprs, se)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	if sel.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if sel.Where, err = p.where(); err != nil {
		return nil, err
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		err := p.list(func() error {
			c, err := p.ident()
			sel.GroupBy = append(sel.GroupBy, c)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		err := p.list(func() error {
			c, err := p.ident()
			if err != nil {
				return err
			}
			key := OrderKey{Col: c, Desc: p.acceptKw("DESC")}
			if !key.Desc {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, key)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKw("LIMIT") {
		if sel.Limit, err = p.expr(); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

func (p *parser) update() (Statement, error) {
	p.next() // UPDATE
	up := &Update{}
	var err error
	if up.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	err = p.list(func() error {
		col, err := p.ident()
		if err != nil {
			return err
		}
		if err := p.expectSym("="); err != nil {
			return err
		}
		e, err := p.expr()
		up.Set = append(up.Set, Assign{Col: col, E: e})
		return err
	})
	if err != nil {
		return nil, err
	}
	if up.Where, err = p.where(); err != nil {
		return nil, err
	}
	return up, nil
}

func (p *parser) delete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	del := &Delete{}
	var err error
	if del.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if del.Where, err = p.where(); err != nil {
		return nil, err
	}
	return del, nil
}

// Expression grammar, lowest to highest precedence:
//
//	expr    := cmp (AND cmp)*
//	cmp     := unary ((= | != | <> | < | <= | > | >=) unary)?
//	unary   := - unary | primary
//	primary := integer | 'text' | ? | ident
//
// An aggregate call is a SELECT list item of its own (selectStmt, call).
func (p *parser) expr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.acceptSym(op) {
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			if op == "<>" {
				op = "!="
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.acceptSym("-") {
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &Neg{X: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tNumber:
		p.pos++
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return &Lit{V: Int(i)}, nil
	case tString:
		p.pos++
		return &Lit{V: Text(t.text)}, nil
	case tParam:
		p.pos++
		e := &Param{Idx: p.params}
		p.params++
		return e, nil
	case tIdent:
		p.pos++
		return &ColRef{Name: t.text}, nil
	}
	return nil, p.errf("unexpected %q in expression", t.text)
}

var aggregates = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// call parses an aggregate call: COUNT(*) or fn(expr).
func (p *parser) call() (Expr, error) {
	call := &Call{Fn: p.next().text}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	if p.acceptSym("*") {
		if call.Fn != "COUNT" {
			return nil, p.errf("%s(*) is not valid", call.Fn)
		}
		call.Star = true
	} else {
		arg, err := p.expr()
		if err != nil {
			return nil, err
		}
		call.Arg = arg
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return call, nil
}
