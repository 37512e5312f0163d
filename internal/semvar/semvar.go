// Package semvar implements the first two phases of the paper's MSQL
// query processing pipeline (§4.3): multiple identifier substitution and
// disambiguation.
//
// Given the current USE scope, the LET bindings and a query body, Expand
// generates all possible substitutions of multiple identifiers ('%'
// patterns, LET semantic variables, '~' optional columns) against the
// Global Data Dictionary, and discards non-pertinent elementary queries —
// those for which some required object does not exist in a database.
//
// Two query shapes come out:
//
//   - fan-out queries (the common case): no table reference names another
//     scope database explicitly, so each scope database yields one (or,
//     with genuinely ambiguous patterns, several) local elementary query;
//   - global queries: at least one table is database-qualified, producing
//     a single elementary query that may join tables of several databases
//     and is later split by the decomposer.
package semvar

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"msql/internal/catalog"
	"msql/internal/msqlparser"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// Expansion errors.
var (
	ErrBadBinding = errors.New("semvar: malformed LET binding")
	ErrNoQueries  = errors.New("semvar: query is not pertinent to any database in scope")
	ErrAmbiguous  = errors.New("semvar: ambiguous reference in global query")
	ErrUnresolved = errors.New("semvar: unresolved reference in global query")
)

// ScopeEntry is one database of the current USE scope.
type ScopeEntry struct {
	Database string
	Name     string // alias when given, else the database name
	Vital    bool
}

// ScopeFromUse converts a parsed USE statement into scope entries.
func ScopeFromUse(u *msqlparser.UseStmt) []ScopeEntry {
	out := make([]ScopeEntry, len(u.Entries))
	for i, e := range u.Entries {
		out[i] = ScopeEntry{Database: e.Database, Name: e.Name(), Vital: e.Vital}
	}
	return out
}

// Elementary is one fully qualified elementary query.
type Elementary struct {
	// Entry is the scope database the query runs against (fan-out mode).
	Entry ScopeEntry
	// Global marks a cross-database query for the decomposer; Entry is
	// then meaningless.
	Global bool
	// Stmt is the substituted statement. In global mode all table names
	// are database-qualified.
	Stmt sqlparser.Statement
}

// Skip records why a scope database produced no elementary query.
type Skip struct {
	Entry  ScopeEntry
	Reason string
}

// Result is the outcome of expansion.
type Result struct {
	Queries []Elementary
	Skipped []Skip
}

// Expand runs multiple identifier substitution and disambiguation.
func Expand(gdd *catalog.GDD, scope []ScopeEntry, lets []msqlparser.LetBinding, body sqlparser.Statement) (*Result, error) {
	if len(scope) == 0 {
		return nil, fmt.Errorf("semvar: empty scope — issue USE first")
	}
	if err := validateBindings(scope, lets); err != nil {
		return nil, err
	}
	tables := collectTableTexts(body)
	if isGlobal(tables, scope) {
		el, err := expandGlobal(gdd, scope, lets, body)
		if err != nil {
			return nil, err
		}
		return &Result{Queries: []Elementary{*el}}, nil
	}
	res := &Result{}
	for i, entry := range scope {
		ex := &entryExpander{
			gdd:        gdd,
			entry:      entry,
			varMap:     bindingMap(lets, i),
			body:       body,
			aliases:    fromAliases(body),
			defTargets: definitionTargets(body),
		}
		queries, reason := ex.expand()
		if reason != "" {
			res.Skipped = append(res.Skipped, Skip{Entry: entry, Reason: reason})
			continue
		}
		res.Queries = append(res.Queries, queries...)
	}
	if len(res.Queries) == 0 {
		reasons := make([]string, 0, len(res.Skipped))
		for _, s := range res.Skipped {
			reasons = append(reasons, s.Entry.Name+": "+s.Reason)
		}
		return nil, fmt.Errorf("%w (%s)", ErrNoQueries, strings.Join(reasons, "; "))
	}
	return res, nil
}

func validateBindings(scope []ScopeEntry, lets []msqlparser.LetBinding) error {
	for _, b := range lets {
		if len(b.Var) == 0 {
			return fmt.Errorf("%w: empty variable path", ErrBadBinding)
		}
		if len(b.Designators) > len(scope) {
			return fmt.Errorf("%w: %s has %d designators for %d databases in scope",
				ErrBadBinding, strings.Join(b.Var, "."), len(b.Designators), len(scope))
		}
		for _, d := range b.Designators {
			if len(d.Parts) != len(b.Var) {
				return fmt.Errorf("%w: designator %s does not match variable %s",
					ErrBadBinding, strings.Join(d.Names(), "."), strings.Join(b.Var, "."))
			}
			if len(d.Parts) > 0 && d.Parts[0].IsExpr() {
				return fmt.Errorf("%w: a transformation cannot designate a table (%s)",
					ErrBadBinding, strings.Join(b.Var, "."))
			}
		}
	}
	return nil
}

// bindTarget is what a semantic-variable component resolves to in one
// database: a concrete object name, or a transformation expression over
// the database's local columns.
type bindTarget struct {
	name string
	expr sqlparser.Expr
}

// bindingMap builds the component→target map for scope position i.
// Component 0 of each variable is a table name; the rest are columns or
// transformations.
func bindingMap(lets []msqlparser.LetBinding, i int) map[string]bindTarget {
	m := make(map[string]bindTarget)
	for _, b := range lets {
		if i >= len(b.Designators) {
			continue
		}
		for j, comp := range b.Var {
			part := b.Designators[i].Parts[j]
			if part.IsExpr() {
				m[comp] = bindTarget{expr: part.Expr}
			} else {
				m[comp] = bindTarget{name: part.Name}
			}
		}
	}
	return m
}

// collectTableTexts gathers every table reference in the statement,
// including those in subqueries, as original dotted spellings.
func collectTableTexts(s sqlparser.Statement) []sqlparser.ObjectName {
	var out []sqlparser.ObjectName
	add := func(n sqlparser.ObjectName) { out = append(out, n) }
	switch st := s.(type) {
	case *sqlparser.SelectStmt:
		collectSelectTables(st, add)
	case *sqlparser.InsertStmt:
		add(st.Table)
		if st.Query != nil {
			collectSelectTables(st.Query, add)
		}
	case *sqlparser.UpdateStmt:
		add(st.Table)
	case *sqlparser.DeleteStmt:
		add(st.Table)
	case *sqlparser.CreateTableStmt:
		add(st.Table)
	case *sqlparser.DropTableStmt:
		add(st.Table)
	case *sqlparser.CreateViewStmt:
		add(st.View)
		collectSelectTables(st.Query, add)
	case *sqlparser.DropViewStmt:
		add(st.View)
	}
	// Subqueries inside expressions.
	sqlparser.WalkExprs(s, func(e sqlparser.Expr) {
		switch x := e.(type) {
		case *sqlparser.SubqueryExpr:
			for _, f := range x.Query.From {
				add(f.Name)
			}
		case *sqlparser.InExpr:
			if x.Query != nil {
				for _, f := range x.Query.From {
					add(f.Name)
				}
			}
		}
	})
	return out
}

func collectSelectTables(sel *sqlparser.SelectStmt, add func(sqlparser.ObjectName)) {
	if sel == nil {
		return
	}
	for _, f := range sel.From {
		add(f.Name)
	}
	for _, u := range sel.Unions {
		collectSelectTables(u.Select, add)
	}
}

// IsGlobalQuery reports whether a statement explicitly references scope
// databases in its table names, making it a cross-database (global)
// query rather than a fan-out multiple query. The executor uses this to
// route statements: global ones form their own synchronization unit.
func IsGlobalQuery(stmt sqlparser.Statement, scope []ScopeEntry) bool {
	return isGlobal(collectTableTexts(stmt), scope)
}

// isGlobal reports whether any table reference carries an explicit scope
// database (or alias) prefix, which makes the query a cross-database join
// handled by the decomposer.
func isGlobal(tables []sqlparser.ObjectName, scope []ScopeEntry) bool {
	names := make(map[string]bool, len(scope)*2)
	for _, e := range scope {
		names[e.Database] = true
		names[e.Name] = true
	}
	for _, t := range tables {
		if len(t.Parts) >= 2 && names[t.Parts[0]] {
			return true
		}
	}
	return false
}

// fromAliases maps FROM aliases to the original table spelling.
func fromAliases(s sqlparser.Statement) map[string]string {
	m := make(map[string]string)
	var scan func(sel *sqlparser.SelectStmt)
	scan = func(sel *sqlparser.SelectStmt) {
		if sel == nil {
			return
		}
		for _, f := range sel.From {
			if f.Alias != "" {
				m[f.Alias] = f.Name.String()
			}
		}
		for _, u := range sel.Unions {
			scan(u.Select)
		}
	}
	switch st := s.(type) {
	case *sqlparser.SelectStmt:
		scan(st)
	case *sqlparser.InsertStmt:
		scan(st.Query)
	}
	sqlparser.WalkExprs(s, func(e sqlparser.Expr) {
		switch x := e.(type) {
		case *sqlparser.SubqueryExpr:
			scan(x.Query)
		case *sqlparser.InExpr:
			scan(x.Query)
		}
	})
	return m
}

// projectionAliases collects output aliases usable in ORDER BY.
func projectionAliases(s sqlparser.Statement) map[string]bool {
	m := make(map[string]bool)
	if sel, ok := s.(*sqlparser.SelectStmt); ok {
		for _, it := range sel.Items {
			if it.Alias != "" {
				m[it.Alias] = true
			}
		}
	}
	return m
}

// definitionTargets returns table names a statement defines rather than
// reads: CREATE TABLE/VIEW targets need no GDD entry yet.
func definitionTargets(s sqlparser.Statement) map[string]bool {
	out := map[string]bool{}
	switch st := s.(type) {
	case *sqlparser.CreateTableStmt:
		out[st.Table.String()] = true
	case *sqlparser.CreateViewStmt:
		out[st.View.String()] = true
	}
	return out
}

// entryExpander resolves one scope database in fan-out mode.
type entryExpander struct {
	gdd        *catalog.GDD
	entry      ScopeEntry
	varMap     map[string]bindTarget
	body       sqlparser.Statement
	aliases    map[string]string
	defTargets map[string]bool
	cols       []tableCols // column names of the tables looked up so far
}

// tableCols memoises one table's column names for an expansion.
type tableCols struct {
	table string
	cols  []string
}

// colsOf returns a table's column names in this database, looked up once
// per expansion. An expansion names a handful of tables, so a slice
// beats a map.
func (ex *entryExpander) colsOf(table string) []string {
	for _, tc := range ex.cols {
		if tc.table == table {
			return tc.cols
		}
	}
	c := ex.gdd.ColumnNames(ex.entry.Database, table)
	ex.cols = append(ex.cols, tableCols{table, c})
	return c
}

// expand returns the elementary queries for this database, or a skip
// reason when the query is not pertinent here.
func (ex *entryExpander) expand() ([]Elementary, string) {
	db := ex.entry.Database
	tables := collectTableTexts(ex.body)

	// Distinct table spellings, in first-appearance order.
	var tableTexts []string
	seen := map[string]bool{}
	for _, t := range tables {
		key := t.String()
		if !seen[key] {
			seen[key] = true
			tableTexts = append(tableTexts, key)
		}
	}

	// Resolve candidates per table spelling.
	candidates := make(map[string][]string, len(tableTexts))
	for _, text := range tableTexts {
		cands, reason := ex.tableCandidates(text)
		if reason != "" {
			return nil, reason
		}
		candidates[text] = cands
	}

	// Enumerate table choice combinations.
	var results []Elementary
	choice := make(map[string]string, len(tableTexts))
	var rec func(i int) string
	rec = func(i int) string {
		if i == len(tableTexts) {
			els, reason := ex.expandColumns(choice)
			if reason != "" {
				return reason
			}
			results = append(results, els...)
			return ""
		}
		text := tableTexts[i]
		var lastReason string
		for _, c := range candidates[text] {
			choice[text] = c
			if r := rec(i + 1); r != "" {
				lastReason = r
			}
		}
		delete(choice, text)
		return lastReason
	}
	reason := rec(0)
	if len(results) == 0 {
		if reason == "" {
			reason = "no valid substitution"
		}
		return nil, reason
	}
	_ = db
	return results, ""
}

// tableCandidates resolves a table spelling to concrete table names in
// this database.
func (ex *entryExpander) tableCandidates(text string) ([]string, string) {
	db := ex.entry.Database
	// Strip a redundant own-database prefix (db.table in fan-out mode can
	// only refer to this entry, or the query would have been global).
	name := text
	if i := strings.IndexByte(text, '.'); i >= 0 {
		prefix := text[:i]
		if prefix == db || prefix == ex.entry.Name {
			name = text[i+1:]
		}
	}
	if ex.defTargets[text] || ex.defTargets[name] {
		// A CREATE target: no dictionary entry is expected to exist.
		return []string{name}, ""
	}
	if target, ok := ex.varMap[name]; ok {
		if target.expr != nil {
			return nil, fmt.Sprintf("transformation variable %s cannot name a table", name)
		}
		if !ex.gdd.HasTable(db, target.name) {
			return nil, fmt.Sprintf("LET designator %s not in %s", target.name, db)
		}
		return []string{target.name}, ""
	}
	if strings.Contains(name, "%") {
		matches, err := ex.gdd.TablesMatching(db, name)
		if err != nil || len(matches) == 0 {
			return nil, fmt.Sprintf("no table matching %s in %s", name, db)
		}
		return matches, ""
	}
	if !ex.gdd.HasTable(db, name) {
		return nil, fmt.Sprintf("no table %s in %s", name, db)
	}
	return []string{name}, ""
}

// colKey identifies a column reference occurrence class for consistent
// substitution: same spelling → same replacement.
func colKey(c sqlparser.ColRef) string {
	k := strings.Join(c.Parts, ".")
	if c.Optional {
		return "~" + k
	}
	return k
}

// expandColumns resolves every column reference under a fixed table
// choice, enumerating combinations for genuinely ambiguous patterns.
func (ex *entryExpander) expandColumns(tableChoice map[string]string) ([]Elementary, string) {
	projAliases := projectionAliases(ex.body)

	// Column set of all chosen tables, with table attribution.
	chosen := make([]string, 0, len(tableChoice))
	for _, c := range tableChoice {
		chosen = append(chosen, c)
	}
	sort.Strings(chosen)

	// Gather distinct column reference spellings.
	var refs []sqlparser.ColRef
	seen := map[string]bool{}
	addRef := func(c sqlparser.ColRef) {
		k := colKey(c)
		if !seen[k] {
			seen[k] = true
			refs = append(refs, c)
		}
	}
	sqlparser.WalkExprs(ex.body, func(e sqlparser.Expr) {
		if c, ok := e.(sqlparser.ColRef); ok {
			addRef(c)
		}
	})
	if ins, ok := ex.body.(*sqlparser.InsertStmt); ok {
		for _, n := range ins.Columns {
			addRef(sqlparser.ColRef{Parts: []string{n}})
		}
	}

	// Resolve each spelling to candidate replacement expressions.
	type option struct {
		key   string
		exprs []sqlparser.Expr
	}
	var opts []option
	for _, ref := range refs {
		exprs, reason := ex.columnOptions(ref, tableChoice, chosen, projAliases)
		if reason != "" {
			return nil, reason
		}
		opts = append(opts, option{key: colKey(ref), exprs: exprs})
	}

	// Enumerate combinations of column choices and rewrite.
	var out []Elementary
	assign := make(map[string]sqlparser.Expr, len(opts))
	var rec func(i int)
	rec = func(i int) {
		if i == len(opts) {
			out = append(out, Elementary{Entry: ex.entry, Stmt: ex.rewrite(tableChoice, assign)})
			return
		}
		for _, e := range opts[i].exprs {
			assign[opts[i].key] = e
			rec(i + 1)
		}
		delete(assign, opts[i].key)
	}
	rec(0)
	return out, ""
}

// columnOptions resolves one column spelling to its candidate
// replacements for this database.
func (ex *entryExpander) columnOptions(ref sqlparser.ColRef, tableChoice map[string]string,
	chosen []string, projAliases map[string]bool) ([]sqlparser.Expr, string) {

	nullExpr := func() sqlparser.Expr { return &sqlparser.Literal{Val: sqlval.Null()} }
	plain := func(parts ...string) sqlparser.Expr { return sqlparser.ColRef{Parts: parts} }

	switch len(ref.Parts) {
	case 1:
		name := ref.Parts[0]
		if target, ok := ex.varMap[name]; ok {
			if target.expr != nil {
				// Dynamic transformation: substitute the expression, as a
				// deep copy so later rewrites cannot alias AST nodes.
				return []sqlparser.Expr{sqlparser.Rewriter{}.RewriteExpr(target.expr)}, ""
			}
			for _, t := range chosen {
				for _, c := range ex.colsOf(t) {
					if c == target.name {
						return []sqlparser.Expr{plain(target.name)}, ""
					}
				}
			}
			// The variable may be a table component used as a column — or
			// the designated column is simply absent here.
			if ref.Optional {
				return []sqlparser.Expr{nullExpr()}, ""
			}
			return nil, fmt.Sprintf("LET column %s not in chosen tables of %s", target.name, ex.entry.Database)
		}
		if strings.Contains(name, "%") {
			var matches []string
			mseen := map[string]bool{}
			for _, t := range chosen {
				for _, c := range ex.colsOf(t) {
					if catalog.MatchName(c, name) && !mseen[c] {
						mseen[c] = true
						matches = append(matches, c)
					}
				}
			}
			sort.Strings(matches)
			if len(matches) == 0 {
				if ref.Optional {
					return []sqlparser.Expr{nullExpr()}, ""
				}
				return nil, fmt.Sprintf("no column matching %s in %s", name, ex.entry.Database)
			}
			exprs := make([]sqlparser.Expr, len(matches))
			for i, m := range matches {
				exprs[i] = plain(m)
			}
			return exprs, ""
		}
		// Plain name: a real column, a projection alias, or missing.
		for _, t := range chosen {
			for _, c := range ex.colsOf(t) {
				if c == name {
					return []sqlparser.Expr{plain(name)}, ""
				}
			}
		}
		if projAliases[name] {
			return []sqlparser.Expr{plain(name)}, ""
		}
		if ref.Optional {
			return []sqlparser.Expr{nullExpr()}, ""
		}
		return nil, fmt.Sprintf("no column %s in %s", name, ex.entry.Database)
	case 2:
		qual, name := ref.Parts[0], ref.Parts[1]
		// Resolve the qualifier: FROM alias, semantic variable, pattern or
		// literal table spelling.
		var table string
		var keepQual string
		if orig, ok := ex.aliases[qual]; ok {
			table = tableChoice[orig]
			keepQual = qual
		} else {
			cands, reason := ex.tableCandidates(qual)
			if reason != "" {
				if ref.Optional {
					return []sqlparser.Expr{nullExpr()}, ""
				}
				return nil, reason
			}
			// Prefer the chosen table for this spelling when it was also a
			// FROM reference, else the unique candidate.
			if t, ok := tableChoice[qual]; ok {
				table = t
			} else if len(cands) == 1 {
				table = cands[0]
			} else {
				return nil, fmt.Sprintf("ambiguous qualifier %s in %s", qual, ex.entry.Database)
			}
			keepQual = table
		}
		resolve := func(colName string) ([]string, bool) {
			if target, ok := ex.varMap[colName]; ok {
				if target.expr != nil {
					// A transformation variable cannot carry a qualifier:
					// its expression already names local columns.
					return nil, false
				}
				colName = target.name
			}
			if strings.Contains(colName, "%") {
				var matches []string
				for _, c := range ex.colsOf(table) {
					if catalog.MatchName(c, colName) {
						matches = append(matches, c)
					}
				}
				sort.Strings(matches)
				return matches, len(matches) > 0
			}
			for _, c := range ex.colsOf(table) {
				if c == colName {
					return []string{colName}, true
				}
			}
			return nil, false
		}
		matches, ok := resolve(name)
		if !ok {
			if ref.Optional {
				return []sqlparser.Expr{nullExpr()}, ""
			}
			return nil, fmt.Sprintf("no column %s.%s in %s", qual, name, ex.entry.Database)
		}
		exprs := make([]sqlparser.Expr, len(matches))
		for i, m := range matches {
			exprs[i] = plain(keepQual, m)
		}
		return exprs, ""
	default:
		// db.table.column with this entry's prefix: strip and retry.
		if ref.Parts[0] == ex.entry.Database || ref.Parts[0] == ex.entry.Name {
			return ex.columnOptions(sqlparser.ColRef{Parts: ref.Parts[1:], Optional: ref.Optional},
				tableChoice, chosen, projAliases)
		}
		return nil, fmt.Sprintf("reference %s names a database outside this query's span", colKey(ref))
	}
}

// rewrite applies the chosen substitutions to the body.
func (ex *entryExpander) rewrite(tableChoice map[string]string, colAssign map[string]sqlparser.Expr) sqlparser.Statement {
	rw := sqlparser.Rewriter{
		Table: func(n sqlparser.ObjectName) sqlparser.ObjectName {
			if c, ok := tableChoice[n.String()]; ok {
				return sqlparser.Name(c)
			}
			// Own-db prefixed spelling.
			if len(n.Parts) >= 2 && (n.Parts[0] == ex.entry.Database || n.Parts[0] == ex.entry.Name) {
				if c, ok := tableChoice[strings.Join(n.Parts[1:], ".")]; ok {
					return sqlparser.Name(c)
				}
			}
			return n
		},
		Col: func(c sqlparser.ColRef) sqlparser.Expr {
			if e, ok := colAssign[colKey(c)]; ok {
				return e
			}
			c.Optional = false
			return c
		},
	}
	return sqlparser.RewriteStatement(ex.body, rw)
}
