package sqldb

// Statement is a parsed SQL statement.
type Statement interface{ stmt() }

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name    string
	Type    Kind
	NotNull bool
	PK      bool
}

// CreateTable is CREATE TABLE.
type CreateTable struct {
	Name        string
	IfNotExists bool
	Cols        []ColumnDef
	Foreign     []ForeignKey
}

// CreateIndex is CREATE INDEX ... ON table (cols).
type CreateIndex struct {
	Name        string
	IfNotExists bool
	Table       string
	Cols        []string
}

// Insert is INSERT INTO ... VALUES, one value per column in table order.
type Insert struct {
	Table string
	Rows  [][]Expr
}

// SelectExpr is one projected expression with an optional alias.
type SelectExpr struct {
	E     Expr
	Alias string
	Star  bool
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Col  string
	Desc bool
}

// Select is SELECT ... FROM.
type Select struct {
	Distinct bool
	Exprs    []SelectExpr
	Table    string
	Where    Expr
	GroupBy  []string
	OrderBy  []OrderKey
	Limit    Expr // nil when absent
}

// Assign is one SET column = expr.
type Assign struct {
	Col string
	E   Expr
}

// Update is UPDATE ... SET ... WHERE.
type Update struct {
	Table string
	Set   []Assign
	Where Expr
}

// Delete is DELETE FROM ... WHERE.
type Delete struct {
	Table string
	Where Expr
}

func (*CreateTable) stmt() {}
func (*CreateIndex) stmt() {}
func (*Insert) stmt()      {}
func (*Select) stmt()      {}
func (*Update) stmt()      {}
func (*Delete) stmt()      {}

// Expr is a SQL expression node.
type Expr interface{ expr() }

// Lit is a literal value.
type Lit struct{ V Value }

// Param is a `?` placeholder, filled from the statement arguments in
// order of appearance.
type Param struct{ Idx int }

// ColRef references a column by name.
type ColRef struct{ Name string }

// Neg is -x.
type Neg struct{ X Expr }

// Binary is AND or a comparison.
type Binary struct {
	Op   string
	L, R Expr
}

// Call is an aggregate function call: COUNT(*), COUNT(x), SUM, AVG, MIN,
// MAX. It is a whole SELECT list item, never part of an expression.
type Call struct {
	Fn   string
	Arg  Expr
	Star bool
}

func (*Lit) expr()    {}
func (*Param) expr()  {}
func (*ColRef) expr() {}
func (*Neg) expr()    {}
func (*Binary) expr() {}
func (*Call) expr()   {}
