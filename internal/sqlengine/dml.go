package sqlengine

import (
	"fmt"

	"msql/internal/relstore"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// execInsert handles INSERT ... VALUES and INSERT ... SELECT.
func execInsert(tx *relstore.Tx, db string, ins *sqlparser.InsertStmt) (*Result, error) {
	tdb, tname := splitName(db, ins.Table)
	tbl, err := tx.TableForWrite(tdb, tname)
	if err != nil {
		return nil, err
	}
	colIdx := make([]int, 0, len(tbl.Columns))
	if len(ins.Columns) == 0 {
		for i := range tbl.Columns {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range ins.Columns {
			i := tbl.ColumnIndex(name)
			if i < 0 {
				return nil, fmt.Errorf("%w: %s in %s.%s", ErrUnknownColumn, name, tdb, tname)
			}
			colIdx = append(colIdx, i)
		}
	}

	buildRow := func(vals []sqlval.Value) (relstore.Row, error) {
		if len(vals) != len(colIdx) {
			return nil, fmt.Errorf("sqlengine: INSERT has %d values for %d columns", len(vals), len(colIdx))
		}
		row := make(relstore.Row, len(tbl.Columns))
		for i := range row {
			row[i] = sqlval.Null()
		}
		for vi, ti := range colIdx {
			v, err := sqlval.CoerceTo(vals[vi], tbl.Columns[ti].Type)
			if err != nil {
				return nil, fmt.Errorf("sqlengine: column %s: %v", tbl.Columns[ti].Name, err)
			}
			row[ti] = v
		}
		return row, nil
	}

	var rows []relstore.Row
	if ins.Query != nil {
		res, err := execSelect(tx, db, ins.Query, nil)
		if err != nil {
			return nil, err
		}
		rows = make([]relstore.Row, len(res.Rows))
		for i, r := range res.Rows {
			if rows[i], err = buildRow(r); err != nil {
				return nil, err
			}
		}
	} else {
		// Every VALUES row is evaluated before any is inserted, so a
		// subquery in a later row does not see the earlier rows.
		e := &env{tx: tx, db: db}
		rows = make([]relstore.Row, len(ins.Rows))
		vals := make([]sqlval.Value, 0, len(colIdx))
		for ri, exprRow := range ins.Rows {
			vals = vals[:0]
			for _, ex := range exprRow {
				v, err := evalExpr(e, ex)
				if err != nil {
					return nil, err
				}
				vals = append(vals, v)
			}
			if rows[ri], err = buildRow(vals); err != nil {
				return nil, err
			}
		}
	}
	if err := tx.InsertRows(tdb, tname, rows); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: len(rows)}, nil
}

// execUpdate handles UPDATE ... SET ... WHERE. Assignments are evaluated
// against the pre-update row values, and all matching rows are collected
// before any is modified, per SQL semantics.
func execUpdate(tx *relstore.Tx, db string, upd *sqlparser.UpdateStmt) (*Result, error) {
	tdb, tname := splitName(db, upd.Table)
	tbl, err := tx.TableForWrite(tdb, tname)
	if err != nil {
		return nil, err
	}
	assignIdx := make([]int, len(upd.Assigns))
	for i, a := range upd.Assigns {
		ci := tbl.ColumnIndex(a.Column.Last())
		if ci < 0 {
			return nil, fmt.Errorf("%w: %s in %s.%s", ErrUnknownColumn, a.Column.Last(), tdb, tname)
		}
		assignIdx[i] = ci
	}

	e := &env{
		tx: tx, db: db,
		sources: []*boundSource{{qualifier: tname, cols: append([]relstore.Column(nil), tbl.Columns...)}},
	}
	e.current = make([]relstore.Row, 1)

	type pending struct {
		idx int
		row relstore.Row
	}
	var updates []pending
	var scanErr error
	tbl.ForEach(func(idx int, row relstore.Row) bool {
		e.current[0] = row
		if upd.Where != nil {
			v, err := evalExpr(e, upd.Where)
			if err != nil {
				scanErr = err
				return false
			}
			if !v.Truthy() {
				return true
			}
		}
		newRow := row.Clone()
		for ai, a := range upd.Assigns {
			v, err := evalExpr(e, a.Expr)
			if err != nil {
				scanErr = err
				return false
			}
			cv, err := sqlval.CoerceTo(v, tbl.Columns[assignIdx[ai]].Type)
			if err != nil {
				scanErr = fmt.Errorf("sqlengine: column %s: %v", tbl.Columns[assignIdx[ai]].Name, err)
				return false
			}
			newRow[assignIdx[ai]] = cv
		}
		updates = append(updates, pending{idx: idx, row: newRow})
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	for _, u := range updates {
		if err := tx.Update(tdb, tname, u.idx, u.row); err != nil {
			return nil, err
		}
	}
	return &Result{RowsAffected: len(updates)}, nil
}

// execDelete handles DELETE FROM ... WHERE.
func execDelete(tx *relstore.Tx, db string, del *sqlparser.DeleteStmt) (*Result, error) {
	tdb, tname := splitName(db, del.Table)
	tbl, err := tx.TableForWrite(tdb, tname)
	if err != nil {
		return nil, err
	}
	e := &env{
		tx: tx, db: db,
		sources: []*boundSource{{qualifier: del.Table.Last(), cols: append([]relstore.Column(nil), tbl.Columns...)}},
	}
	e.current = make([]relstore.Row, 1)

	var victims []int
	var scanErr error
	tbl.ForEach(func(idx int, row relstore.Row) bool {
		e.current[0] = row
		if del.Where != nil {
			v, err := evalExpr(e, del.Where)
			if err != nil {
				scanErr = err
				return false
			}
			if !v.Truthy() {
				return true
			}
		}
		victims = append(victims, idx)
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	for _, idx := range victims {
		if err := tx.Delete(tdb, tname, idx); err != nil {
			return nil, err
		}
	}
	return &Result{RowsAffected: len(victims)}, nil
}
