package server

import (
	"fmt"
	"strings"
	"time"

	"minerule/internal/sql/value"
)

// scanSQL walks a statement text outside of string literals ('…' with
// ” escapes), delimited identifiers ("…"), line comments (-- …) and
// block comments (/* … */), and reports the byte offsets of its ?
// placeholders plus whether a top-level ';' separates two statements
// (which routes the text down the script path). The SQL lexer has no
// '?' token, so placeholders must be found — and later substituted —
// before the text reaches the engine.
func scanSQL(text string) (placeholders []int, script bool) {
	sawSemi := false
	i := 0
	for i < len(text) {
		c := text[i]
		switch {
		case c == '\'':
			i++
			for i < len(text) {
				if text[i] == '\'' {
					if i+1 < len(text) && text[i+1] == '\'' {
						i += 2 // escaped quote, stay inside the literal
						continue
					}
					i++
					break
				}
				i++
			}
			if sawSemi {
				script = true
			}
		case c == '"':
			i++
			for i < len(text) && text[i] != '"' {
				i++
			}
			i++
			if sawSemi {
				script = true
			}
		case c == '-' && i+1 < len(text) && text[i+1] == '-':
			for i < len(text) && text[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(text) && text[i+1] == '*':
			i += 2
			for i+1 < len(text) && !(text[i] == '*' && text[i+1] == '/') {
				i++
			}
			i += 2
		case c == '?':
			placeholders = append(placeholders, i)
			if sawSemi {
				script = true
			}
			i++
		case c == ';':
			sawSemi = true
			i++
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		default:
			if sawSemi {
				script = true
			}
			i++
		}
	}
	return placeholders, script
}

// substitute renders each argument as a SQL literal and splices it over
// the matching ? placeholder, producing the final text the engine
// executes (and whose prepared program the stmtcache retains).
func substitute(st *prepStmt, args []interface{}) (string, error) {
	if len(args) != len(st.placeholders) {
		return "", fmt.Errorf("server: statement wants %d arguments, got %d", len(st.placeholders), len(args))
	}
	if len(args) == 0 {
		return st.sql, nil
	}
	var sb strings.Builder
	prev := 0
	for i, off := range st.placeholders {
		lit, err := renderArg(args[i])
		if err != nil {
			return "", fmt.Errorf("server: argument %d: %w", i+1, err)
		}
		sb.WriteString(st.sql[prev:off])
		sb.WriteString(lit)
		prev = off + 1
	}
	sb.WriteString(st.sql[prev:])
	return sb.String(), nil
}

// renderArg converts one wire argument into the SQL literal syntax the
// parser accepts. value.Value.SQL already knows the engine's literal
// forms (quote doubling, DATE '…'), so every branch goes through it.
func renderArg(v interface{}) (string, error) {
	switch x := v.(type) {
	case nil:
		return "NULL", nil
	case int64:
		return value.NewInt(x).SQL(), nil
	case float64:
		return value.NewFloat(x).SQL(), nil
	case bool:
		return value.NewBool(x).SQL(), nil
	case string:
		return value.NewString(x).SQL(), nil
	case []byte:
		return value.NewString(string(x)).SQL(), nil
	case time.Time:
		return value.NewDate(x.Year(), x.Month(), x.Day()).SQL(), nil
	default:
		return "", fmt.Errorf("unsupported argument type %T", v)
	}
}
