package sqlparser

import "testing"

// TestLexerErrorPrecedence pins that a lexing error anywhere in the
// source wins over a syntax error before it, over a trailing-input
// error, and over a parse that would otherwise succeed, and that its
// message is the lexer's own.
func TestLexerErrorPrecedence(t *testing.T) {
	cases := []struct {
		name, src, want string
		script          bool
	}{
		{"after syntax error", "SELECT 1 2 'oops", "unterminated string literal at offset 11", false},
		{"after syntax error, bad character", "SELECT 1 2 @", "unexpected character '@' at offset 11", false},
		{"after complete statement", "SELECT a FROM t; 'oops", "unterminated string literal at offset 17", false},
		{"inside would-be statement", "SELECT a FROM t WHERE b = 'oops", "unterminated string literal at offset 26", false},
		{"after unsupported statement", "SELEKT a @ b", "unexpected character '@' at offset 9", false},
		{"far past syntax error", "INSERT INTO t VALUES (1, 2; SELECT 'a', 'b' FROM u WHERE x @ 3", "unexpected character '@' at offset 59", false},
		{"script, after statements", "SELECT a FROM t; SELECT b FROM u; 'oops", "unterminated string literal at offset 34", true},
		{"script, after syntax error", "SELECT a FROM t; SELECT FROM u; x @", "unexpected character '@' at offset 34", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			if c.script {
				_, err = ParseScript(c.src)
			} else {
				_, err = ParseStatement(c.src)
			}
			if err == nil || err.Error() != c.want {
				t.Fatalf("parse %q: err = %v, want %q", c.src, err, c.want)
			}
			if _, terr := Tokenize(c.src); terr == nil || terr.Error() != c.want {
				t.Fatalf("Tokenize(%q) = %v, want %q", c.src, terr, c.want)
			}
		})
	}
}
