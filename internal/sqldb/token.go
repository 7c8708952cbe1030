package sqldb

import (
	"fmt"
	"strings"
)

// tokKind classifies lexer tokens.
type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tKeyword
	tNumber // decimal integer
	tString // 'text'
	tParam  // ?
	tSymbol // punctuation and operators
)

type token struct {
	kind tokKind
	text string // keywords upper-cased, identifiers as written
	pos  int
}

var keywords = map[string]bool{
	"CREATE": true, "TABLE": true, "IF": true, "NOT": true, "EXISTS": true,
	"INSERT": true, "INTO": true, "VALUES": true,
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "ASC": true, "DESC": true, "LIMIT": true,
	"UPDATE": true, "SET": true, "DELETE": true,
	"PRIMARY": true, "KEY": true, "FOREIGN": true, "REFERENCES": true,
	"NULL": true, "AND": true, "AS": true, "DISTINCT": true,
	"INTEGER": true, "INT": true, "TEXT": true, "BLOB": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"INDEX": true, "ON": true,
}

// lex tokenizes a SQL statement.
func lex(sql string) ([]token, error) {
	var toks []token
	i := 0
	n := len(sql)
	for i < n {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if sql[i] == '\'' {
					if i+1 < n && sql[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(sql[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sqldb: unterminated string at offset %d", start)
			}
			toks = append(toks, token{tString, sb.String(), start})
		case c >= '0' && c <= '9':
			start := i
			for i < n && sql[i] >= '0' && sql[i] <= '9' {
				i++
			}
			toks = append(toks, token{tNumber, sql[start:i], start})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(sql[i]) {
				i++
			}
			word := sql[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{tKeyword, up, start})
			} else {
				toks = append(toks, token{tIdent, word, start})
			}
		case c == '?':
			toks = append(toks, token{tParam, "?", i})
			i++
		case c == '<' && i+1 < n && (sql[i+1] == '=' || sql[i+1] == '>'):
			toks = append(toks, token{tSymbol, sql[i : i+2], i})
			i += 2
		case c == '>' && i+1 < n && sql[i+1] == '=':
			toks = append(toks, token{tSymbol, ">=", i})
			i += 2
		case c == '!' && i+1 < n && sql[i+1] == '=':
			toks = append(toks, token{tSymbol, "!=", i})
			i += 2
		case strings.IndexByte("(),*=<>-;", c) >= 0:
			toks = append(toks, token{tSymbol, string(c), i})
			i++
		default:
			return nil, fmt.Errorf("sqldb: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{tEOF, "", n})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}
