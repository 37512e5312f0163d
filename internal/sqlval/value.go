// Package sqlval implements the typed value system shared by every layer of
// the multidatabase engine: the local SQL engine, the wire protocol, the
// multitable result representation and the MSQL front end.
//
// Values are small, comparable-by-function structs rather than interfaces so
// that rows can be stored and copied cheaply in the in-memory stores.
package sqlval

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types a Value can take.
type Kind uint8

// The supported value kinds. KindNull is the zero value so that a zero
// Value is SQL NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "CHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed SQL value. The zero Value is NULL.
type Value struct {
	K Kind
	I int64
	F float64
	S string
	B bool
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a floating point value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// Str returns a string value.
func Str(s string) Value { return Value{K: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{K: KindBool, B: b} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// IsNumeric reports whether v is an integer or float.
func (v Value) IsNumeric() bool { return v.K == KindInt || v.K == KindFloat }

// AsFloat converts a numeric value to float64. It returns false for
// non-numeric values.
func (v Value) AsFloat() (float64, bool) {
	switch v.K {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	default:
		return 0, false
	}
}

// AsInt converts a numeric value to int64, truncating floats. It returns
// false for non-numeric values.
func (v Value) AsInt() (int64, bool) {
	switch v.K {
	case KindInt:
		return v.I, true
	case KindFloat:
		return int64(v.F), true
	default:
		return 0, false
	}
}

// Truthy reports whether v counts as true in a WHERE clause. NULL is not
// truthy (SQL three-valued logic collapses UNKNOWN to false at the filter).
func (v Value) Truthy() bool {
	switch v.K {
	case KindBool:
		return v.B
	case KindInt:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	default:
		return false
	}
}

// String renders the value the way the result printer and the tests expect:
// NULL, unquoted numbers, bare strings, TRUE/FALSE.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("Value(%d)", uint8(v.K))
	}
}

// SQL renders the value as a literal that the SQL parser will read back:
// strings are single-quoted with embedded quotes doubled.
func (v Value) SQL() string {
	switch v.K {
	case KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case KindFloat:
		// Spelled out in full with a decimal point, so the SQL lexer
		// reads it back as the same FLOAT: String would switch to an
		// exponent the lexer does not read, and print 1.0 as the INT 1.
		s := strconv.FormatFloat(v.F, 'f', -1, 64)
		if !strings.Contains(s, ".") && !math.IsInf(v.F, 0) && !math.IsNaN(v.F) {
			s += ".0"
		}
		return s
	}
	return v.String()
}

// Equal reports strict equality under numeric coercion. NULL never equals
// anything, including NULL (use IsNull for that).
func Equal(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c == 0
}

// Compare orders two values. It returns ok=false when either value is NULL
// or the kinds are incomparable. Numeric kinds compare after coercion to
// float64; strings compare lexicographically; booleans order false < true.
func Compare(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	if a.IsNumeric() && b.IsNumeric() {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	}
	if a.K == KindString && b.K == KindString {
		return strings.Compare(a.S, b.S), true
	}
	if a.K == KindBool && b.K == KindBool {
		switch {
		case a.B == b.B:
			return 0, true
		case !a.B:
			return -1, true
		default:
			return 1, true
		}
	}
	return 0, false
}

// SortCompare is a total order used by ORDER BY and GROUP BY: NULL sorts
// first, then booleans, numbers, strings; incomparable kinds order by kind.
func SortCompare(a, b Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	if c, ok := Compare(a, b); ok {
		return c
	}
	ra, rb := kindRank(a.K), kindRank(b.K)
	switch {
	case ra < rb:
		return -1
	case ra > rb:
		return 1
	default:
		return 0
	}
}

func kindRank(k Kind) int {
	switch k {
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	default:
		return 0
	}
}

// GroupKey returns a string key identifying the value for hash grouping and
// DISTINCT. Integral floats and ints with the same numeric value share keys.
func (v Value) GroupKey() string {
	switch v.K {
	case KindNull:
		return "n"
	case KindInt:
		return "i" + strconv.FormatInt(v.I, 10)
	case KindFloat:
		if v.F == float64(int64(v.F)) {
			return "i" + strconv.FormatInt(int64(v.F), 10)
		}
		return "f" + strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return "s" + v.S
	case KindBool:
		if v.B {
			return "bt"
		}
		return "bf"
	default:
		return "?"
	}
}

// ArithOp is a binary arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	default:
		return "?"
	}
}

// Arith applies op to two values. NULL operands yield NULL. Integer
// operands stay integral except for division, which promotes to float when
// inexact, matching what the engine's UPDATE arithmetic needs.
func Arith(op ArithOp, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if op == OpAdd && a.K == KindString && b.K == KindString {
		return Str(a.S + b.S), nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null(), fmt.Errorf("cannot apply %s to %s and %s", op, a.K, b.K)
	}
	if a.K == KindInt && b.K == KindInt {
		switch op {
		case OpAdd:
			return Int(a.I + b.I), nil
		case OpSub:
			return Int(a.I - b.I), nil
		case OpMul:
			return Int(a.I * b.I), nil
		case OpDiv:
			if b.I == 0 {
				return Null(), fmt.Errorf("division by zero")
			}
			if a.I%b.I == 0 {
				return Int(a.I / b.I), nil
			}
			return Float(float64(a.I) / float64(b.I)), nil
		case OpMod:
			if b.I == 0 {
				return Null(), fmt.Errorf("division by zero")
			}
			return Int(a.I % b.I), nil
		}
	}
	af, _ := a.AsFloat()
	bf, _ := b.AsFloat()
	switch op {
	case OpAdd:
		return Float(af + bf), nil
	case OpSub:
		return Float(af - bf), nil
	case OpMul:
		return Float(af * bf), nil
	case OpDiv:
		if bf == 0 {
			return Null(), fmt.Errorf("division by zero")
		}
		return Float(af / bf), nil
	case OpMod:
		if bf == 0 {
			return Null(), fmt.Errorf("division by zero")
		}
		return Float(float64(int64(af) % int64(bf))), nil
	}
	return Null(), fmt.Errorf("unknown arithmetic operator")
}

// Neg negates a numeric value; NULL passes through.
func Neg(v Value) (Value, error) {
	switch v.K {
	case KindNull:
		return Null(), nil
	case KindInt:
		return Int(-v.I), nil
	case KindFloat:
		return Float(-v.F), nil
	default:
		return Null(), fmt.Errorf("cannot negate %s", v.K)
	}
}

// Like implements the SQL LIKE operator with % (any run) and _ (any one
// character) wildcards. Matching is case sensitive, as in the paper's
// examples.
func Like(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Iterative matcher with backtracking over the last %.
	var si, pi int
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			starSi = si
			pi++
		case star >= 0:
			pi = star + 1
			starSi++
			si = starSi
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// CoerceTo converts v to the column type named by kind, used when inserting
// literals into typed columns. Integers widen to floats; integral floats
// narrow to ints; everything converts to string via String(); strings parse
// into numerics when well-formed.
func CoerceTo(v Value, k Kind) (Value, error) {
	if v.IsNull() || v.K == k {
		return v, nil
	}
	switch k {
	case KindFloat:
		if f, ok := v.AsFloat(); ok {
			return Float(f), nil
		}
		if v.K == KindString {
			if f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64); err == nil {
				return Float(f), nil
			}
		}
	case KindInt:
		if v.K == KindFloat && v.F == float64(int64(v.F)) {
			return Int(int64(v.F)), nil
		}
		if v.K == KindString {
			if i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64); err == nil {
				return Int(i), nil
			}
		}
	case KindString:
		return Str(v.String()), nil
	case KindBool:
		if v.K == KindInt {
			return Bool(v.I != 0), nil
		}
	}
	return Null(), fmt.Errorf("cannot coerce %s %q to %s", v.K, v.String(), k)
}
