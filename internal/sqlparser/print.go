package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"msql/internal/sqlval"
)

// Deparse renders a statement back to SQL text. The output reparses to an
// equivalent AST; the decomposer uses it to ship subqueries to LAMs.
func Deparse(s Statement) string {
	var b strings.Builder
	deparseStmt(&b, s)
	return b.String()
}

func deparseStmt(b *strings.Builder, s Statement) {
	switch st := s.(type) {
	case *SelectStmt:
		deparseSelect(b, st)
	case *InsertStmt:
		b.WriteString("INSERT INTO ")
		b.WriteString(st.Table.String())
		if len(st.Columns) > 0 {
			b.WriteString(" (")
			b.WriteString(strings.Join(st.Columns, ", "))
			b.WriteString(")")
		}
		if st.Query != nil {
			b.WriteString(" ")
			deparseSelect(b, st.Query)
			return
		}
		b.WriteString(" VALUES ")
		for i, row := range st.Rows {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("(")
			for j, e := range row {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString(DeparseExpr(e))
			}
			b.WriteString(")")
		}
	case *UpdateStmt:
		b.WriteString("UPDATE ")
		b.WriteString(st.Table.String())
		b.WriteString(" SET ")
		for i, a := range st.Assigns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(deparseColRef(a.Column))
			b.WriteString(" = ")
			b.WriteString(DeparseExpr(a.Expr))
		}
		if st.Where != nil {
			b.WriteString(" WHERE ")
			b.WriteString(DeparseExpr(st.Where))
		}
	case *DeleteStmt:
		b.WriteString("DELETE FROM ")
		b.WriteString(st.Table.String())
		if st.Where != nil {
			b.WriteString(" WHERE ")
			b.WriteString(DeparseExpr(st.Where))
		}
	case *CreateTableStmt:
		b.WriteString("CREATE TABLE ")
		b.WriteString(st.Table.String())
		b.WriteString(" (")
		var keys []string
		for i, c := range st.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Name)
			b.WriteString(" ")
			b.WriteString(typeName(c))
			if c.Key {
				keys = append(keys, c.Name)
			}
		}
		if len(keys) > 0 {
			b.WriteString(", PRIMARY KEY (")
			b.WriteString(strings.Join(keys, ", "))
			b.WriteString(")")
		}
		b.WriteString(")")
	case *DropTableStmt:
		b.WriteString("DROP TABLE ")
		if st.IfExists {
			b.WriteString("IF EXISTS ")
		}
		b.WriteString(st.Table.String())
	case *CreateDatabaseStmt:
		b.WriteString("CREATE DATABASE ")
		b.WriteString(st.Database)
	case *DropDatabaseStmt:
		b.WriteString("DROP DATABASE ")
		b.WriteString(st.Database)
	case *CreateViewStmt:
		b.WriteString("CREATE VIEW ")
		b.WriteString(st.View.String())
		b.WriteString(" AS ")
		deparseSelect(b, st.Query)
	case *DropViewStmt:
		b.WriteString("DROP VIEW ")
		b.WriteString(st.View.String())
	case *ExplainStmt:
		b.WriteString("EXPLAIN ")
		if st.Analyze {
			b.WriteString("ANALYZE ")
		}
		if st.JSON {
			b.WriteString("FORMAT JSON ")
		}
		deparseStmt(b, st.Target)
	case *BeginStmt:
		b.WriteString("BEGIN")
	case *CommitStmt:
		b.WriteString("COMMIT")
	case *RollbackStmt:
		b.WriteString("ROLLBACK")
	default:
		fmt.Fprintf(b, "/* unknown statement %T */", s)
	}
}

// typeName spells a column type, with its declared width, if any, so the
// definition parses back unchanged; only CHAR widths are enforced.
func typeName(c ColumnDef) string {
	var name string
	switch c.Type {
	case sqlval.KindInt:
		name = "INTEGER"
	case sqlval.KindFloat:
		name = "FLOAT"
	case sqlval.KindBool:
		name = "BOOLEAN"
	default:
		name = "CHAR"
	}
	if c.Width > 0 {
		name += "(" + strconv.Itoa(c.Width) + ")"
	}
	return name
}

func deparseSelect(b *strings.Builder, s *SelectStmt) {
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Star && it.Qualifier != "":
			b.WriteString(it.Qualifier)
			b.WriteString(".*")
		case it.Star:
			b.WriteString("*")
		default:
			b.WriteString(DeparseExpr(it.Expr))
			if it.Alias != "" {
				b.WriteString(" AS ")
				b.WriteString(it.Alias)
			}
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, f := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Name.String())
			if f.Alias != "" {
				b.WriteString(" ")
				b.WriteString(f.Alias)
			}
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(DeparseExpr(s.Where))
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(DeparseExpr(g))
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(DeparseExpr(s.Having))
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(DeparseExpr(o.Expr))
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.Itoa(s.Limit))
	}
	for _, u := range s.Unions {
		b.WriteString(" UNION ")
		if u.All {
			b.WriteString("ALL ")
		}
		deparseSelect(b, u.Select)
	}
}

// DeparseExpr renders an expression back to SQL text.
func DeparseExpr(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *Literal:
		return x.Val.SQL()
	case ColRef:
		return deparseColRef(x)
	case *BinaryExpr:
		var l, r string
		switch lv := level(x); lv {
		case levelCompare:
			l, r = subject(x.L), operand(x.R, levelAdd)
		default: // left-associative: a right operand at the same level needs parentheses
			l, r = operand(x.L, lv), operand(x.R, lv+1)
		}
		return l + " " + x.Op + " " + r
	case *UnaryExpr:
		if x.Op == "NOT" {
			return "NOT (" + DeparseExpr(x.X) + ")"
		}
		s := operand(x.X, levelPrimary)
		if strings.HasPrefix(s, "-") { // "--" would open a comment
			s = "(" + s + ")"
		}
		return x.Op + s
	case *FuncCall:
		if x.Star {
			return x.Name + "(*)"
		}
		var args []string
		for _, a := range x.Args {
			args = append(args, DeparseExpr(a))
		}
		d := ""
		if x.Distinct {
			d = "DISTINCT "
		}
		return x.Name + "(" + d + strings.Join(args, ", ") + ")"
	case *SubqueryExpr:
		var b strings.Builder
		deparseSelect(&b, x.Query)
		return "(" + b.String() + ")"
	case *InExpr:
		not := ""
		if x.Not {
			not = " NOT"
		}
		if x.Query != nil {
			var b strings.Builder
			deparseSelect(&b, x.Query)
			return subject(x.X) + not + " IN (" + b.String() + ")"
		}
		var items []string
		for _, it := range x.List {
			items = append(items, DeparseExpr(it))
		}
		return subject(x.X) + not + " IN (" + strings.Join(items, ", ") + ")"
	case *BetweenExpr:
		not := ""
		if x.Not {
			not = " NOT"
		}
		return subject(x.X) + not + " BETWEEN " + operand(x.Lo, levelAdd) + " AND " + operand(x.Hi, levelAdd)
	case *IsNullExpr:
		if x.Not {
			return subject(x.X) + " IS NOT NULL"
		}
		return subject(x.X) + " IS NULL"
	case *LikeExpr:
		not := ""
		if x.Not {
			not = " NOT"
		}
		return subject(x.X) + not + " LIKE " + operand(x.Pattern, levelAdd)
	default:
		return fmt.Sprintf("/* unknown expr %T */", e)
	}
}

func deparseColRef(c ColRef) string {
	s := strings.Join(c.Parts, ".")
	if c.Optional {
		return "~" + s
	}
	return s
}

// Binding levels of the expression grammar, loosest first. Deparse
// parenthesises an operand whose level is below what its position in
// the grammar accepts, so the text parses back to the same tree.
const (
	levelOr = iota + 1
	levelAnd
	levelNot
	levelCompare // comparisons and the LIKE, BETWEEN, IN and IS predicates
	levelAdd
	levelMul
	levelUnary
	levelPrimary
)

func level(e Expr) int {
	switch x := e.(type) {
	case *BinaryExpr:
		switch x.Op {
		case "OR":
			return levelOr
		case "AND":
			return levelAnd
		case "+", "-":
			return levelAdd
		case "*", "/":
			return levelMul
		default:
			return levelCompare
		}
	case *UnaryExpr:
		if x.Op == "NOT" {
			return levelNot
		}
		return levelUnary
	case *LikeExpr, *BetweenExpr, *InExpr, *IsNullExpr:
		return levelCompare
	default:
		return levelPrimary
	}
}

// operand renders e for a position that accepts levels from min up.
func operand(e Expr, min int) string {
	if level(e) < min {
		return "(" + DeparseExpr(e) + ")"
	}
	return DeparseExpr(e)
}

// subject renders the left side of a comparison or predicate: an
// additive expression, or a chain of LIKE, BETWEEN and IS predicates,
// which the parser applies left to right.
func subject(e Expr) string {
	switch e.(type) {
	case *LikeExpr, *BetweenExpr, *IsNullExpr:
		return DeparseExpr(e)
	}
	return operand(e, levelAdd)
}
