package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"msql/internal/core"
	"msql/internal/csvstore"
	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/mdserver"
	"msql/internal/mtlog"
	"msql/internal/relstore"
)

const (
	// groupCommitWindow is the coordinator journal's group-commit batch
	// window in vital-tcp-durable (msql -serve -group-commit-window).
	groupCommitWindow = 2 * time.Millisecond
	// prepareRefusal is the chance that a relstore site refuses a 2PC
	// prepare in vital-tcp-durable, so aborts and compensations run.
	prepareRefusal = 0.02
	// vitalPoolPages sizes the vital sites' buffer pools; their tables
	// fit, so the commit path and not page misses dominates.
	vitalPoolPages = 256
)

// env is one stood-up federation for a workload.
type env struct {
	w       *workload
	dir     string
	fed     *core.Federation
	servers map[string]*ldbms.Server // by database
	stores  []*relstore.Store
	journal *mtlog.Journal
	runners []runner
	closers []func()
}

// runner executes one script for one client session.
type runner interface {
	run(ctx context.Context, script string) (*outcome, error)
}

// outcome is a script's result, normalized across the in-process and
// coordinator-server paths.
type outcome struct {
	rows     []string // database-prefixed rendered rows of every SELECT
	state    string   // state of the last sync or multitransaction
	achieved int      // acceptable state a multitransaction reached, -1 if none
	trace    string   // coordinator trace id, when the path reports it
}

// setup stands the workload's federation up under dir. rec, when non-nil,
// wraps every LAM client in a probe.
func setup(w *workload, dir string, rec *recorder) (_ *env, err error) {
	e := &env{w: w, dir: dir, fed: core.New(), servers: map[string]*ldbms.Server{}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tcp := w.tcp
	var script strings.Builder
	for i, s := range w.sites {
		srv, err := e.newServer(i, s)
		if err != nil {
			return nil, fmt.Errorf("site %s: %w", s.service, err)
		}
		if err := load(srv, s); err != nil {
			return nil, fmt.Errorf("load %s: %w", s.db, err)
		}
		key := s.service
		var client lam.Client = lam.NewLocal(srv)
		if tcp {
			var opts lam.ServeOptions
			if w.coordServer {
				pj, err := mtlog.OpenParticipant(filepath.Join(dir, s.service+".journal"))
				if err != nil {
					return nil, err
				}
				e.closers = append(e.closers, func() { pj.Close() })
				opts.Journal = pj
			}
			ts, err := lam.ServeWith("127.0.0.1:0", srv, opts)
			if err != nil {
				return nil, err
			}
			e.closers = append(e.closers, func() { ts.Close() })
			remote, err := lam.DialWith(context.Background(), ts.Addr(), lam.DialOptions{})
			if err != nil {
				return nil, err
			}
			e.closers = append(e.closers, func() { remote.Close() })
			key, client = ts.Addr(), remote
		}
		if rec != nil {
			client = &probeClient{Client: client, site: s.db, rec: rec}
		}
		e.fed.RegisterClient(key, client)
		mode := "NOCOMMIT"
		if s.profile == "autocommit" {
			mode = "COMMIT"
		}
		siteClause := ""
		if tcp {
			siteClause = fmt.Sprintf(" SITE '%s'", key)
		}
		fmt.Fprintf(&script, "INCORPORATE SERVICE %s%s CONNECTMODE CONNECT COMMITMODE %s;\nIMPORT DATABASE %s FROM SERVICE %s;\n",
			s.service, siteClause, mode, s.db, s.service)
	}
	if _, err := e.fed.ExecScript(script.String()); err != nil {
		return nil, fmt.Errorf("federate: %w", err)
	}
	if !w.coordServer {
		for i := 0; i < w.sessions; i++ {
			e.runners = append(e.runners, coreRunner{e.fed.NewSession("")})
		}
		return e, nil
	}
	j, err := mtlog.Open(filepath.Join(dir, "coord.journal"))
	if err != nil {
		return nil, err
	}
	e.closers = append(e.closers, func() { j.Close() })
	j.SetGroupCommit(groupCommitWindow)
	e.fed.SetJournal(j)
	e.journal = j
	md, err := mdserver.Serve("127.0.0.1:0", e.fed, mdserver.Options{MaxSessions: w.sessions})
	if err != nil {
		return nil, err
	}
	e.closers = append(e.closers, func() { md.Close() })
	for i := 0; i < w.sessions; i++ {
		c, err := mdserver.Dial(md.Addr(), fmt.Sprintf("s%d", i))
		if err != nil {
			return nil, err
		}
		e.closers = append(e.closers, func() { c.Close() })
		e.runners = append(e.runners, mdRunner{c})
	}
	// Refusals start only after setup, so loading never trips them.
	for i, s := range w.sites {
		if !s.csv {
			e.servers[s.db].Faults().Add(ldbms.FaultRule{Op: ldbms.FaultPrepare, Probability: prepareRefusal,
				Sticky: true, Message: fmt.Sprintf("injected prepare refusal %d", i)})
		}
	}
	return e, nil
}

func profileOf(name string) ldbms.Profile {
	switch name {
	case "ingres":
		return ldbms.ProfileIngresLike()
	case "autocommit":
		return ldbms.ProfileAutoCommitOnly()
	default:
		return ldbms.ProfileOracleLike()
	}
}

// newServer creates a site's LDBMS on the backend its workload names.
func (e *env) newServer(i int, s *site) (*ldbms.Server, error) {
	seed := e.w.seed*31 + int64(i)
	var srv *ldbms.Server
	switch {
	case s.csv:
		cs, err := csvstore.Open(filepath.Join(e.dir, s.db))
		if err != nil {
			return nil, err
		}
		srv = ldbms.NewServerOn(s.service, profileOf(s.profile), seed, cs)
	case e.w.poolPages == 0:
		st := relstore.NewStore()
		e.stores = append(e.stores, st)
		srv = ldbms.NewServerWith(s.service, profileOf(s.profile), seed, st)
	default:
		st, err := relstore.Open(relstore.Options{Dir: filepath.Join(e.dir, s.db), PoolPages: e.w.poolPages})
		if err != nil {
			return nil, err
		}
		e.stores = append(e.stores, st)
		srv = ldbms.NewServerWith(s.service, profileOf(s.profile), seed, st)
	}
	e.closers = append(e.closers, func() { srv.Close() })
	e.servers[s.db] = srv
	return srv, srv.CreateDatabase(s.db)
}

// load creates a site's tables and rows in one local transaction.
func load(srv *ldbms.Server, s *site) error {
	sess, err := srv.OpenSession(s.db)
	if err != nil {
		return err
	}
	defer sess.Close()
	for _, t := range s.tables {
		if _, err := sess.Exec(t.ddl()); err != nil {
			return err
		}
		for _, ins := range t.inserts(250) {
			if _, err := sess.Exec(ins); err != nil {
				return err
			}
		}
	}
	return sess.Commit()
}

// close stops every server and client in reverse order of creation and
// removes the data directory.
func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
	os.RemoveAll(e.dir)
}

// dump reads every row of every table directly from the site's server,
// bypassing the federation: the ground truth for the state oracle.
func (e *env) dump(db, tbl string) ([][]string, error) {
	srv := e.servers[db]
	sess, err := srv.OpenSession(db)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	res, err := sess.Exec("SELECT * FROM " + tbl)
	if err != nil {
		return nil, err
	}
	out := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = make([]string, len(row))
		for j, v := range row {
			out[i][j] = v.String()
		}
	}
	return out, sess.Commit()
}

// coreRunner runs scripts on an in-process coordinator session.
type coreRunner struct{ s *core.Session }

func (r coreRunner) run(ctx context.Context, script string) (*outcome, error) {
	res, err := r.s.ExecScriptContext(ctx, script)
	if err != nil {
		return nil, err
	}
	o := &outcome{achieved: -1}
	for _, x := range res {
		o.trace = x.TraceID
		switch x.Kind {
		case core.KindSelect:
			for _, t := range x.Multitable.Tables {
				for _, row := range t.Rows {
					cells := make([]string, len(row))
					for i, v := range row {
						cells[i] = v.String()
					}
					o.rows = append(o.rows, rowString(t.Database, cells...))
				}
			}
		case core.KindSync, core.KindGlobalDML:
			o.state = x.State.String()
		case core.KindMultiTx:
			o.state = x.State.String()
			if x.AchievedState != nil {
				o.achieved = x.Status
			}
		}
	}
	return o, nil
}

// mdRunner runs scripts through the coordinator server's wire protocol,
// as msql -serve clients do.
type mdRunner struct{ c *mdserver.Client }

func (r mdRunner) run(ctx context.Context, script string) (*outcome, error) {
	res, err := r.c.Script(ctx, script)
	if err != nil {
		return nil, err
	}
	o := &outcome{achieved: -1}
	for _, x := range res {
		if x.Failed {
			return nil, fmt.Errorf("script failed: %s", x.Detail)
		}
		switch x.Kind {
		case "select":
			// The flattened multitable leads each row with its database.
			for _, row := range x.Rows {
				o.rows = append(o.rows, strings.Join(row, "|"))
			}
		case "sync", "global-dml":
			o.state = x.State
		case "multitx":
			o.state = x.State
			if x.State == "success" {
				if _, err := fmt.Sscanf(x.Detail, "acceptable state %d:", &o.achieved); err != nil {
					return nil, fmt.Errorf("multitransaction detail %q: %w", x.Detail, err)
				}
			}
		}
	}
	return o, nil
}
