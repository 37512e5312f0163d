package dol

import "testing"

// TestLexerErrorPrecedence pins that a lexing error anywhere in a DOL
// program wins over syntax and trailing-input errors, with the lexer's
// own message.
func TestLexerErrorPrecedence(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"after syntax error", "DOLBEGIN OPEN a AT s AS; DOLEND 'oops", "unterminated string literal at offset 32"},
		{"after DOLEND", "DOLBEGIN CLOSE a; DOLEND @", "unexpected character '@' at offset 25"},
		{"inside task body", "DOLBEGIN TASK T1 FOR c { SELECT a FROM t WHERE b = 'oops } ENDTASK; DOLEND", "unterminated string literal at offset 51"},
		{"after task body syntax error", "DOLBEGIN TASK T1 FOR c { SELECT FROM t } ENDTASK; DOLSTATUS=@; DOLEND", "unexpected character '@' at offset 60"},
		{"missing DOLEND", "DOLBEGIN CLOSE a; 'oops", "unterminated string literal at offset 18"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(c.src); err == nil || err.Error() != c.want {
				t.Fatalf("Parse(%q): err = %v, want %q", c.src, err, c.want)
			}
		})
	}
}
