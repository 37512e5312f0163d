package sqlparser

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseStatement checks, for any input, that the parser does not
// panic, that a lexing error is reported exactly as Tokenize reports it,
// that parse → Deparse → parse reaches a fixpoint and gives back the
// same tree (journals and the LAM replay deparsed SQL), and that an all-literal INSERT parses the same
// whether or not each value goes through the general expression path.
// Seeds live in testdata/fuzz/FuzzParseStatement.
func FuzzParseStatement(f *testing.F) {
	f.Add("INSERT INTO t (a, b) VALUES (1, 'x''y'), (NULL, 2.5), (-3, '')")
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := ParseStatement(src)
		if _, lexErr := Tokenize(src); lexErr != nil {
			if err == nil || err.Error() != lexErr.Error() {
				t.Fatalf("ParseStatement(%q) = %v, want the lexing error %q", src, err, lexErr)
			}
			return
		}
		if err != nil {
			return
		}
		out1 := Deparse(stmt)
		again, err := ParseStatement(out1)
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", src, out1, err)
		}
		if out2 := Deparse(again); out2 != out1 {
			t.Fatalf("deparse not stable for %q:\n  out1 %q\n  out2 %q", src, out1, out2)
		}
		if !reflect.DeepEqual(again, stmt) {
			t.Fatalf("deparse of %q changed the tree: %q", src, out1)
		}
		if ins, ok := stmt.(*InsertStmt); ok {
			checkLiteralValues(t, ins)
		}
	})
}

// checkLiteralValues parses an all-literal INSERT twice, once plain (the
// literal shortcut) and once with every value parenthesised (the general
// expression path), and requires equal trees.
func checkLiteralValues(t *testing.T, ins *InsertStmt) {
	t.Helper()
	var plain, wrapped strings.Builder
	for i, row := range ins.Rows {
		for j, e := range row {
			if _, ok := e.(*Literal); !ok {
				return
			}
			sep := ", "
			switch {
			case j == 0 && i == 0:
				sep = "("
			case j == 0:
				sep = "), ("
			}
			v := DeparseExpr(e)
			plain.WriteString(sep + v)
			wrapped.WriteString(sep + "(" + v + ")")
		}
	}
	if len(ins.Rows) == 0 {
		return
	}
	parse := func(values string) Statement {
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
