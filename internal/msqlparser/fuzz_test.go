package msqlparser

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"msql/internal/sqlparser"
)

// TestParserNeverPanicsOnNoise feeds the MSQL parser seeded random token
// soup; parse errors are fine, panics are not.
func TestParserNeverPanicsOnNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	words := []string{
		"USE", "LET", "BE", "SELECT", "FROM", "WHERE", "UPDATE", "SET",
		"INSERT", "INTO", "VALUES", "DELETE", "COMP", "VITAL", "BEGIN",
		"MULTITRANSACTION", "COMMIT", "END", "AND", "OR", "NOT",
		"INCORPORATE", "SERVICE", "IMPORT", "DATABASE", "TABLE", "COLUMN",
		"CREATE", "DROP", "MULTIVIEW", "TRIGGER", "EFFECTIVE",
		"flight%", "%code", "~rate", "avis", "t1", "x.y.z", "(", ")", ",",
		";", ".", "=", "*", "'str'", "42", "1.1", "{", "}", "<", ">",
	}
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(20)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteString(words[rng.Intn(len(words))])
			b.WriteByte(' ')
		}
		src := b.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}

// TestParserNeverPanicsOnBytes throws raw byte noise at the lexer/parser.
func TestParserNeverPanicsOnBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = byte(rng.Intn(128))
		}
		src := string(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}

// FuzzParse checks, for any input, that the MSQL parser does not panic,
// that a lexing error is reported exactly as Tokenize reports it, that
// every embedded SQL body survives parse → Deparse → parse as the same
// text and tree (the coordinator ships and journals deparsed bodies), and
// that an all-literal INSERT parses the same whether or not each value
// goes through the general expression path. Seeds live in
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Add("USE avis national; INSERT INTO car% VALUES (1, 'x''y', -2.5, NULL), (2, '', 3, 'z')")
	f.Fuzz(func(t *testing.T, src string) {
		script, err := Parse(src)
		if _, lexErr := sqlparser.Tokenize(src); lexErr != nil {
			if err == nil || err.Error() != lexErr.Error() {
				t.Fatalf("Parse(%q) = %v, want the lexing error %q", src, err, lexErr)
			}
			return
		}
		if err != nil {
			return
		}
		for _, body := range sqlBodies(script.Stmts) {
			out1 := sqlparser.Deparse(body)
			again, err := sqlparser.ParseStatement(out1)
			if err != nil {
				t.Fatalf("reparse of a body of %q -> %q: %v", src, out1, err)
			}
			if out2 := sqlparser.Deparse(again); out2 != out1 || !reflect.DeepEqual(again, body) {
				t.Fatalf("deparse of a body of %q not stable:\n  out1 %q\n  out2 %q", src, out1, out2)
			}
			if ins, ok := body.(*sqlparser.InsertStmt); ok {
				checkLiteralValues(t, ins)
			}
		}
	})
}

// sqlBodies collects the SQL statements embedded in MSQL statements.
func sqlBodies(stmts []Stmt) []sqlparser.Statement {
	var out []sqlparser.Statement
	query := func(q *QueryStmt) {
		out = append(out, q.Body)
		for _, c := range q.Comps {
			out = append(out, c.Body)
		}
	}
	for _, s := range stmts {
		switch x := s.(type) {
		case *QueryStmt:
			query(x)
		case *ExplainStmt:
			query(x.Query)
		case *CreateTriggerStmt:
			query(x.Body)
		case *CreateMultiviewStmt:
			out = append(out, x.Body)
		case *MultiTxStmt:
			out = append(out, sqlBodies(x.Body)...)
		}
	}
	return out
}

// checkLiteralValues parses an all-literal INSERT as an MSQL statement
// twice, once plain (the literal shortcut) and once with every value
// parenthesised (the general expression path), and requires equal trees.
func checkLiteralValues(t *testing.T, ins *sqlparser.InsertStmt) {
	t.Helper()
	var plain, wrapped strings.Builder
	for i, row := range ins.Rows {
		for j, e := range row {
			if _, ok := e.(*sqlparser.Literal); !ok {
				return
			}
			sep := ", "
			switch {
			case j == 0 && i == 0:
				sep = "("
			case j == 0:
				sep = "), ("
			}
			v := sqlparser.DeparseExpr(e)
			plain.WriteString(sep + v)
			wrapped.WriteString(sep + "(" + v + ")")
		}
	}
	if len(ins.Rows) == 0 {
		return
	}
	parse := func(values string) Stmt {
		st, err := ParseStatement("INSERT INTO t VALUES " + values + ")")
		if err != nil {
			t.Fatalf("parse INSERT VALUES %s): %v", values, err)
		}
		return st
	}
	if a, b := parse(plain.String()), parse(wrapped.String()); !reflect.DeepEqual(a, b) {
		t.Fatalf("literal shortcut disagrees with the expression path:\n  %s)\n  %s)", plain.String(), wrapped.String())
	}
}
