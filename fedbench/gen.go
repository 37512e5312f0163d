package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The generator turns (workload, seed) into everything the program is
// given: the sites, their tables and rows, and one endless stream of
// MSQL scripts per client session. It is the only source of randomness
// in a run, so the same seed always produces byte-identical inputs.

// site is one local DBMS of a workload's federation.
type site struct {
	service string
	db      string
	profile string // "oracle", "ingres" or "autocommit"
	csv     bool   // csvstore backend instead of relstore
	tables  []*table
}

// table is one local table with its generated rows. Every column is an
// INTEGER except the CHAR columns named in chars; the first column is
// the primary key.
type table struct {
	name  string
	cols  []string
	chars map[string]int // CHAR width by column name
	rows  [][]string     // rendered cell values, in key order
}

func (t *table) ddl() string {
	defs := make([]string, len(t.cols))
	for i, c := range t.cols {
		typ := "INTEGER"
		if w, ok := t.chars[c]; ok {
			typ = fmt.Sprintf("CHAR(%d)", w)
		}
		defs[i] = c + " " + typ
		if i == 0 {
			defs[i] += " PRIMARY KEY"
		}
	}
	return fmt.Sprintf("CREATE TABLE %s (%s)", t.name, strings.Join(defs, ", "))
}

// inserts renders the rows as multi-row INSERT statements of at most
// batch rows each.
func (t *table) inserts(batch int) []string {
	var out []string
	for lo := 0; lo < len(t.rows); lo += batch {
		hi := min(lo+batch, len(t.rows))
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s VALUES ", t.name)
		for i, row := range t.rows[lo:hi] {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteByte('(')
			for j, v := range row {
				if j > 0 {
					b.WriteString(", ")
				}
				if _, ok := t.chars[t.cols[j]]; ok {
					b.WriteString("'" + v + "'")
				} else {
					b.WriteString(v)
				}
			}
			b.WriteByte(')')
		}
		out = append(out, b.String())
	}
	return out
}

// op is one closed-loop request of a session.
type op struct {
	kind   string // select, vital, comp, multitx, join or scan
	script string
	// want is the expected answer of a read, as a multiset of rendered
	// rows prefixed with the answering database. Reads whose answer
	// depends on earlier writes leave it nil and name the row in read.
	want []string
	read *rowRef
	// writes are applied to the model when a unit commits; alts[i] when
	// a multitransaction reaches acceptable state i.
	writes []delta
	alts   [][]delta
}

// rowRef names one row of one table.
type rowRef struct {
	db, table string
	id        int
}

// delta adds bal to a row's bal column and n to its n column.
type delta struct {
	rowRef
	bal, n int
}

// workload is a generated federation plus its op streams.
type workload struct {
	name     string
	seed     int64
	sessions int
	sites    []*site
	streams  []func() *op // one op stream per session
	// warmup is the number of ops each session runs before timing.
	warmup int
	// tcp serves every site over the LAM wire protocol; coordServer adds
	// journals, injected prepare refusals and the coordinator server.
	tcp, coordServer bool
	// poolPages sizes disk-backed sites' buffer pools; 0 keeps the sites
	// in memory.
	poolPages int
}

func newWorkload(name string, seed int64) (*workload, error) {
	w := &workload{name: name, seed: seed}
	switch name {
	case "read-inproc":
		genReadInproc(w)
	case "vital-tcp-durable":
		genVital(w)
	case "join-scan-disk":
		genJoin(w, 1)
	// Reproduces a known defect (NOTES.md); not a benchmark workload.
	case "repro-concurrent-join":
		genJoin(w, 2)
	default:
		return nil, fmt.Errorf("unknown workload %q (want read-inproc, vital-tcp-durable or join-scan-disk)", name)
	}
	return w, nil
}

// rng derives an independent generator for one purpose from the seed.
func rng(seed int64, purpose string) *rand.Rand {
	h := sha256.Sum256([]byte(strconv.FormatInt(seed, 10) + "/" + purpose))
	var s int64
	for _, b := range h[:8] {
		s = s<<8 | int64(b)
	}
	return rand.New(rand.NewSource(s))
}

func word(r *rand.Rand, n int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

func itoa(i int) string { return strconv.Itoa(i) }

// digest hashes the generated data and the first n ops of every
// session: equal digests mean byte-identical inputs.
func (w *workload) digest(n int) string {
	h := sha256.New()
	for _, s := range w.sites {
		fmt.Fprintf(h, "%s %s %s %v\n", s.service, s.db, s.profile, s.csv)
		for _, t := range s.tables {
			fmt.Fprintln(h, t.ddl())
			for _, ins := range t.inserts(1 << 30) {
				fmt.Fprintln(h, ins)
			}
		}
	}
	for _, st := range w.streams {
		for i := 0; i < n; i++ {
			fmt.Fprintln(h, st().script)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkDeterminism proves the generator is a function of the seed: two
// generations from one seed are byte-identical, and another seed gives
// different keys.
func checkDeterminism(name string, seed int64) (string, error) {
	const n = 200
	a, _ := newWorkload(name, seed)
	b, _ := newWorkload(name, seed)
	c, _ := newWorkload(name, seed+1)
	da, db, dc := a.digest(n), b.digest(n), c.digest(n)
	if da != db {
		return da, fmt.Errorf("generator not deterministic: seed %d gave digests %s and %s", seed, da, db)
	}
	if da == dc {
		return da, fmt.Errorf("generator ignores the seed: seeds %d and %d both gave %s", seed, seed+1, da)
	}
	return da, nil
}

// deck deals op kinds in shuffled rounds that hold each kind a fixed
// number of times, so every run has its workload's exact mix however
// many ops it completes: a median over mixed kinds then does not move
// with the seed.
type deck struct {
	r     *rand.Rand
	cards []int
	pos   int
}

// newDeck makes a deck with counts[k] cards of kind k per round.
func newDeck(r *rand.Rand, counts ...int) *deck {
	d := &deck{r: r}
	for kind, n := range counts {
		for i := 0; i < n; i++ {
			d.cards = append(d.cards, kind)
		}
	}
	d.pos = len(d.cards)
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.cards) {
		d.r.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

func rowString(db string, cells ...string) string {
	return db + "|" + strings.Join(cells, "|")
}

// ---------------------------------------------------------------------
// read-inproc: four in-memory sites, read-only fan-out and probes.

const readRows = 2000

func genReadInproc(w *workload) {
	w.sessions = 2
	w.warmup = 300
	r := rng(w.seed, "data")
	// The fan-out table has a different name on every site, so only the
	// multiple identifier item% reaches all four (paper section 2).
	itemNames := []string{"item", "items", "itemlist", "itemtab"}
	// The LET table differs in table and column names; two sites also
	// carry an optional disc column, queried as ~disc.
	stockNames := [][]string{
		{"stock", "sku", "label", "cost", "disc"},
		{"inventory", "code", "title", "amount"},
		{"wares", "wid", "wname", "wcost", "disc"},
		{"goods", "gid", "gname", "gcost"},
	}
	profiles := []string{"oracle", "oracle", "ingres", "ingres"}
	for i := 0; i < 4; i++ {
		s := &site{service: fmt.Sprintf("svc_r%d", i), db: fmt.Sprintf("r%d", i), profile: profiles[i]}
		item := &table{name: itemNames[i], cols: []string{"id", "name", "price", "qty"}, chars: map[string]int{"name": 12}}
		for id := 1; id <= readRows; id++ {
			item.rows = append(item.rows, []string{itoa(id), word(r, 8), itoa(r.Intn(100000)), itoa(r.Intn(500))})
		}
		sn := stockNames[i]
		stock := &table{name: sn[0], cols: sn[1:], chars: map[string]int{sn[2]: 12}}
		for id := 1; id <= readRows/2; id++ {
			row := []string{itoa(id), word(r, 10), itoa(r.Intn(9000))}
			if len(sn) == 5 {
				row = append(row, itoa(r.Intn(50)))
			}
			stock.rows = append(stock.rows, row)
		}
		s.tables = []*table{item, stock}
		w.sites = append(w.sites, s)
	}
	for sess := 0; sess < w.sessions; sess++ {
		q := rng(w.seed, fmt.Sprintf("ops/%d", sess))
		d := newDeck(q, 2, 1, 1)
		w.streams = append(w.streams, func() *op { return readOp(w, q, d.next()) })
	}
}

func readOp(w *workload, q *rand.Rand, card int) *op {
	switch card {
	case 0: // % fan-out point SELECT by primary key (half the ops)
		id := 1 + q.Intn(readRows)
		o := &op{kind: "select", script: fmt.Sprintf(
			"USE r0 r1 r2 r3;\nSELECT id, name, price, qty FROM item%% WHERE id = %d;", id)}
		for _, s := range w.sites {
			o.want = append(o.want, rowString(s.db, s.tables[0].rows[id-1]...))
		}
		return o
	case 1: // LET multiple query over differently named tables (a quarter)
		id := 1 + q.Intn(readRows/2)
		var des []string
		o := &op{kind: "select"}
		for _, s := range w.sites {
			t := s.tables[1]
			des = append(des, t.name+"."+strings.Join(t.cols[:3], "."))
			row := t.rows[id-1]
			if len(row) == 3 {
				// ~disc reads NULL where the optional column is absent.
				row = append(slices.Clip(row), "NULL")
			}
			o.want = append(o.want, rowString(s.db, row...))
		}
		o.script = fmt.Sprintf("USE r0 r1 r2 r3;\nLET s.k.l.c BE %s;\nSELECT k, l, c, ~disc FROM s WHERE k = %d;",
			strings.Join(des, " "), id)
		return o
	default: // single-site probe (a quarter)
		s := w.sites[q.Intn(len(w.sites))]
		id := 1 + q.Intn(readRows)
		t := s.tables[0]
		return &op{kind: "select",
			script: fmt.Sprintf("USE %s;\nSELECT id, name, price, qty FROM %s WHERE id = %d;", s.db, t.name, id),
			want:   []string{rowString(s.db, t.rows[id-1]...)}}
	}
}

// ---------------------------------------------------------------------
// vital-tcp-durable: six disk-backed TCP sites, 2PC, COMP and
// multitransactions through the coordinator server.

const (
	vitalFamilies = 8   // tables per site
	vitalRows     = 100 // rows per table
)

// vitalTable names table family f on database db. The family digit is
// what a %-pattern selects: t3% reaches t3o0, t3i0, t3c0, ...
func vitalTable(f int, db string) string { return fmt.Sprintf("t%d%s", f, db) }

// genVital builds six sites: an Oracle-like, an Ingres-like and an
// autocommit-only csv site for each of the two sessions. Each session
// commits only on its own three sites: two sessions committing
// concurrently on one disk-backed relstore site race in its catalog
// checkpoint (see NOTES.md).
func genVital(w *workload) {
	w.sessions = 2
	w.warmup = 20
	w.tcp, w.coordServer, w.poolPages = true, true, vitalPoolPages
	r := rng(w.seed, "data")
	for _, db := range []string{"o0", "i0", "c0", "o1", "i1", "c1"} {
		s := &site{service: "svc_" + db, db: db, profile: map[byte]string{'o': "oracle", 'i': "ingres", 'c': "autocommit"}[db[0]]}
		s.csv = s.profile == "autocommit"
		for f := 0; f < vitalFamilies; f++ {
			t := &table{name: vitalTable(f, db), cols: []string{"id", "owner", "bal", "n"}, chars: map[string]int{"owner": 12}}
			for id := 1; id <= vitalRows; id++ {
				t.rows = append(t.rows, []string{itoa(id), word(r, 8), itoa(1000 + r.Intn(1000)), "0"})
			}
			s.tables = append(s.tables, t)
		}
		w.sites = append(w.sites, s)
	}
	for sess := 0; sess < w.sessions; sess++ {
		q := rng(w.seed, fmt.Sprintf("ops/%d", sess))
		d := newDeck(q, 7, 5, 4, 4)
		w.streams = append(w.streams, func() *op { return vitalOp(q, d.next(), sess) })
	}
}

// vitalOp draws one op of a session.
func vitalOp(q *rand.Rand, card, sess int) *op {
	o, i, c := fmt.Sprint("o", sess), fmt.Sprint("i", sess), fmt.Sprint("c", sess)
	f := q.Intn(vitalFamilies)
	id := 1 + q.Intn(vitalRows)
	d := 1 + q.Intn(9)
	upd := func(tbl string, sign int) string {
		return fmt.Sprintf("UPDATE %s SET bal = bal + %d, n = n + %d WHERE id = %d;", tbl, sign*d, sign, id)
	}
	fam := fmt.Sprintf("t%d%%", f)
	w := func(db string) delta { return delta{rowRef{db, vitalTable(f, db), id}, d, 1} }
	switch card {
	case 0: // VITAL update committed by 2PC on two sites (section 3.2), 35%
		return &op{kind: "vital", writes: []delta{w(o), w(i)},
			script: fmt.Sprintf("USE %s VITAL %s VITAL;\n%s\nCOMMIT;", o, i, upd(fam, 1))}
	case 1: // three-site VITAL unit, compensated on the csv site (3.3), 25%
		return &op{kind: "comp", writes: []delta{w(o), w(i), w(c)},
			script: fmt.Sprintf("USE %s VITAL %s VITAL %s VITAL;\n%s\nCOMP %s\n%s\nCOMMIT;",
				o, i, c, upd(fam, 1), c, upd(vitalTable(f, c), -1))}
	case 2: // flexible multitransaction: both sites, else the second alone (3.4), 20%
		return &op{kind: "multitx", alts: [][]delta{{w(o), w(i)}, {w(i)}},
			script: fmt.Sprintf("BEGIN MULTITRANSACTION\nUSE %s %s;\n%s\nCOMMIT %s AND %s, %s\nEND MULTITRANSACTION;",
				o, i, upd(fam, 1), o, i, i)}
	default: // point read on one of the session's sites, 20%
		db := []string{o, i, c}[q.Intn(3)]
		tbl := vitalTable(f, db)
		return &op{kind: "select", read: &rowRef{db, tbl, id},
			script: fmt.Sprintf("USE %s;\nSELECT id, owner, bal, n FROM %s WHERE id = %d;", db, tbl, id)}
	}
}

// ---------------------------------------------------------------------
// join-scan-disk: three disk-backed TCP sites, tables several times the
// buffer pool, global joins and range aggregates from one session.

const (
	joinOrders    = 12000
	joinCustomers = 6000
	joinRegions   = 16
	joinPoolPages = 48
)

func genJoin(w *workload, sessions int) {
	w.sessions = sessions
	w.warmup = 10
	w.tcp, w.poolPages = true, joinPoolPages
	r := rng(w.seed, "data")
	note := func() string { return word(r, 36) }
	orders := &table{name: "orders", cols: []string{"oid", "cust", "amt", "note"}, chars: map[string]int{"note": 40}}
	for id := 1; id <= joinOrders; id++ {
		orders.rows = append(orders.rows, []string{itoa(id), itoa(1 + r.Intn(joinCustomers)), itoa(r.Intn(10000)), note()})
	}
	customers := &table{name: "customers", cols: []string{"cid", "region", "score", "note"}, chars: map[string]int{"note": 40}}
	for id := 1; id <= joinCustomers; id++ {
		customers.rows = append(customers.rows, []string{itoa(id), itoa(1 + r.Intn(joinRegions)), itoa(r.Intn(1000)), note()})
	}
	regions := &table{name: "regions", cols: []string{"rid", "rname"}, chars: map[string]int{"rname": 12}}
	for id := 1; id <= joinRegions; id++ {
		regions.rows = append(regions.rows, []string{itoa(id), word(r, 8)})
	}
	w.sites = []*site{
		{service: "svc_j0", db: "j0", profile: "oracle", tables: []*table{orders}},
		{service: "svc_j1", db: "j1", profile: "oracle", tables: []*table{customers}},
		{service: "svc_j2", db: "j2", profile: "oracle", tables: []*table{regions}},
	}
	for sess := 0; sess < sessions; sess++ {
		q := rng(w.seed, fmt.Sprintf("ops/%d", sess))
		d := newDeck(q, 7, 4, 7)
		w.streams = append(w.streams, func() *op { return joinOp(orders, customers, regions, q, d.next()) })
	}
}

func atoi(s string) int { n, _ := strconv.Atoi(s); return n }

func joinOp(orders, customers, regions *table, q *rand.Rand, card int) *op {
	switch card {
	case 0: // two-site join, both sides filtered, 7 in 18
		lo := 1 + q.Intn(joinOrders-400)
		hi := lo + 399
		region := 1 + q.Intn(joinRegions)
		o := &op{kind: "join", script: fmt.Sprintf(
			"USE j0 j1;\nSELECT o.oid, o.amt, c.score FROM j0.orders o, j1.customers c WHERE o.cust = c.cid AND c.region = %d AND o.oid BETWEEN %d AND %d;",
			region, lo, hi)}
		for _, or := range orders.rows[lo-1 : hi] {
			c := customers.rows[atoi(or[1])-1]
			if atoi(c[1]) == region {
				o.want = append(o.want, rowString("", or[0], or[2], c[2]))
			}
		}
		return o
	case 1: // three-site join, 4 in 18
		lo := 1 + q.Intn(joinOrders-200)
		hi := lo + 199
		const maxScore = 150
		o := &op{kind: "join", script: fmt.Sprintf(
			"USE j0 j1 j2;\nSELECT o.oid, c.cid, g.rname FROM j0.orders o, j1.customers c, j2.regions g WHERE o.cust = c.cid AND c.region = g.rid AND c.score < %d AND o.oid BETWEEN %d AND %d;",
			maxScore, lo, hi)}
		for _, or := range orders.rows[lo-1 : hi] {
			c := customers.rows[atoi(or[1])-1]
			if atoi(c[2]) < maxScore {
				o.want = append(o.want, rowString("", or[0], c[0], regions.rows[atoi(c[1])-1][1]))
			}
		}
		return o
	default: // single-site range aggregate, 7 in 18
		lo := 1 + q.Intn(joinOrders-3000)
		hi := lo + 2999
		sum := 0
		for _, or := range orders.rows[lo-1 : hi] {
			sum += atoi(or[2])
		}
		return &op{kind: "scan",
			script: fmt.Sprintf("USE j0;\nSELECT COUNT(*), SUM(amt) FROM orders WHERE oid BETWEEN %d AND %d;", lo, hi),
			want:   []string{rowString("j0", itoa(hi-lo+1), itoa(sum))}}
	}
}

// sortedCopy returns a sorted copy, for multiset comparison.
func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}
