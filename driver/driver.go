// Package driver registers an "ifdb" database/sql driver over the
// IFDB client API v2, opening every stdlib-compatible Go application
// and ORM as an IFDB workload.
//
// # Usage
//
//	import (
//		"database/sql"
//		_ "ifdb/driver"
//	)
//
//	db, err := sql.Open("ifdb", "ifdb://127.0.0.1:5432?token=demo&principal=1")
//
// Statements use IFDB's positional parameters ($1, $2, ...). Prepared
// statements map to wire-level PREPARE/EXECUTE (the statement is
// parsed once server-side and executions ship only a handle and
// parameters); queries stream their results in chunked ROWS frames,
// so iterating sql.Rows holds one chunk — not the result set — in
// memory. Context cancellation and deadlines propagate as the wire
// CANCEL frame, aborting the running statement and its transaction
// server-side.
//
// # DSN
//
// The DSN is a URL: ifdb://host:port with options in the query
// string (ifdb://token@host:port also carries the token):
//
//	token         platform token for the Hello handshake
//	principal     acting principal id (default 0)
//	secrecy       comma-separated tag NAMES added to the process
//	              label at connect (information flows into this
//	              connection's reads; see below)
//	endorse       comma-separated tag names endorsed into the
//	              process integrity label at connect (requires
//	              authority for each tag)
//	dial-timeout  per-connection dial timeout (Go duration)
//
// Any other option is refused at sql.Open.
//
// A connection that has a transport error is never redialed: the
// statement fails (it may or may not have executed), the pool retires
// the connection, and the next statement runs on a fresh one that
// establishes the DSN's labels anew.
//
// # IFC labels
//
// Each database/sql connection is one IFDB session carrying the
// process label established by the DSN: secrecy tags contaminate the
// connection (its reads may see, and its writes are stamped with,
// those tags), endorse tags claim integrity. Statements that change
// labels mid-session (SELECT addsecrecy(...) etc.) work, but remember
// database/sql hands you an arbitrary pooled connection per call —
// keep label-changing flows on a dedicated sql.Conn, or set labels
// only via the DSN so every pooled connection is equivalent.
//
// # Transactions
//
// Tx maps to BEGIN/COMMIT/ROLLBACK pinned to one connection (the
// default snapshot isolation, or SERIALIZABLE via
// sql.LevelSerializable). The Router's cross-node routing is not used
// here: the driver speaks to one server, like every other SQL driver.
package driver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"
	"time"

	"ifdb/client"
	"ifdb/internal/types"
)

func init() {
	sql.Register("ifdb", &Driver{})
}

// Driver implements driver.Driver and driver.DriverContext.
type Driver struct{}

// Open opens a connection (driver.Driver).
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	cn, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return cn.Connect(context.Background())
}

// OpenConnector parses the DSN once (driver.DriverContext).
func (d *Driver) OpenConnector(dsn string) (driver.Connector, error) {
	return ParseDSN(dsn)
}

// Connector holds a parsed DSN (driver.Connector).
type Connector struct {
	cfg     client.Config
	secrecy []string // tag names to AddSecrecy at connect
	endorse []string // tag names to Endorse at connect
	drv     *Driver
}

// ParseDSN parses an ifdb:// DSN into a Connector.
func ParseDSN(dsn string) (*Connector, error) {
	if !strings.Contains(dsn, "://") {
		dsn = "ifdb://" + dsn
	}
	u, err := url.Parse(dsn)
	if err != nil {
		return nil, fmt.Errorf("ifdb: bad DSN: %w", err)
	}
	if u.Scheme != "ifdb" {
		return nil, fmt.Errorf("ifdb: bad DSN scheme %q (want ifdb)", u.Scheme)
	}
	if u.Host == "" {
		return nil, errors.New("ifdb: DSN needs a host:port")
	}
	c := &Connector{drv: &Driver{}}
	c.cfg.Addr = u.Host
	if u.User != nil {
		c.cfg.Token = u.User.Username()
	}
	q := u.Query()
	for k := range q {
		switch k {
		case "token", "principal", "secrecy", "endorse", "dial-timeout":
		default:
			return nil, fmt.Errorf("ifdb: unknown DSN option %q", k)
		}
	}
	if v := q.Get("token"); v != "" {
		c.cfg.Token = v
	}
	if v := q.Get("principal"); v != "" {
		p, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("ifdb: bad principal %q", v)
		}
		c.cfg.Principal = p
	}
	if v := q.Get("dial-timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return nil, fmt.Errorf("ifdb: bad dial-timeout %q", v)
		}
		c.cfg.DialTimeout = d
	}
	c.secrecy = splitTags(q["secrecy"])
	c.endorse = splitTags(q["endorse"])
	return c, nil
}

func splitTags(vals []string) []string {
	var out []string
	for _, v := range vals {
		for _, t := range strings.Split(v, ",") {
			if t = strings.TrimSpace(t); t != "" {
				out = append(out, t)
			}
		}
	}
	return out
}

// Connect dials one connection and establishes the DSN's labels
// (driver.Connector).
func (c *Connector) Connect(ctx context.Context) (driver.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cc, err := client.DialConfig(c.cfg)
	if err != nil {
		return nil, err
	}
	for _, name := range c.secrecy {
		t, err := cc.LookupTag(name)
		if err != nil {
			cc.Close()
			return nil, fmt.Errorf("ifdb: secrecy tag %q: %w", name, err)
		}
		cc.AddSecrecy(t)
	}
	for _, name := range c.endorse {
		t, err := cc.LookupTag(name)
		if err != nil {
			cc.Close()
			return nil, fmt.Errorf("ifdb: endorse tag %q: %w", name, err)
		}
		if err := cc.Endorse(t); err != nil {
			cc.Close()
			return nil, fmt.Errorf("ifdb: endorse tag %q: %w", name, err)
		}
	}
	return &conn{c: cc}, nil
}

// Driver returns the driver (driver.Connector).
func (c *Connector) Driver() driver.Driver { return c.drv }

// ---------------------------------------------------------------------------
// Conn

// conn adapts one client.Conn. database/sql serializes calls on a
// conn, matching client.Conn's single-threaded contract.
type conn struct {
	c   *client.Conn
	bad bool // a transport error happened: state unknown, retire
}

// noteErr records a transport failure, so the conn's next call
// returns ErrBadConn — before anything was sent, so database/sql's
// retry on another conn cannot double-execute — and IsValid retires
// it. The failure itself is returned verbatim: the statement may have
// executed, and only the caller can decide whether to retry.
func (c *conn) noteErr(err error) error {
	if err != nil && client.IsTransportError(err) {
		c.bad = true
	}
	return err
}

// IsValid lets the pool discard broken conns on checkin
// (driver.Validator).
func (c *conn) IsValid() bool { return !c.bad }

// Prepare pins a statement server-side (driver.Conn).
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

// PrepareContext implements driver.ConnPrepareContext.
func (c *conn) PrepareContext(ctx context.Context, query string) (driver.Stmt, error) {
	if c.bad {
		return nil, driver.ErrBadConn
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := c.c.Prepare(query)
	if err != nil {
		return nil, c.noteErr(err)
	}
	return &stmt{c: c, s: s}, nil
}

// Close closes the connection (driver.Conn).
func (c *conn) Close() error { return c.c.Close() }

// Begin starts a transaction (driver.Conn).
func (c *conn) Begin() (driver.Tx, error) {
	return c.BeginTx(context.Background(), driver.TxOptions{})
}

// BeginTx implements driver.ConnBeginTx: snapshot isolation by
// default, SERIALIZABLE on request.
func (c *conn) BeginTx(ctx context.Context, opts driver.TxOptions) (driver.Tx, error) {
	if c.bad {
		return nil, driver.ErrBadConn
	}
	if opts.ReadOnly {
		return nil, errors.New("ifdb: read-only transactions are not supported")
	}
	stmtText := "BEGIN"
	switch sql.IsolationLevel(opts.Isolation) {
	case sql.LevelDefault, sql.LevelSnapshot:
	case sql.LevelSerializable:
		stmtText = "BEGIN SERIALIZABLE"
	default:
		return nil, fmt.Errorf("ifdb: unsupported isolation level %s", sql.IsolationLevel(opts.Isolation))
	}
	if _, err := c.c.ExecContext(ctx, stmtText); err != nil {
		return nil, c.noteErr(err)
	}
	return &tx{c: c}, nil
}

// ExecContext implements driver.ExecerContext: one-shot execution
// without a prepare round trip.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	if c.bad {
		return nil, driver.ErrBadConn
	}
	params, err := toParams(args)
	if err != nil {
		return nil, err
	}
	res, err := c.c.ExecContext(ctx, query, params...)
	if err != nil {
		return nil, c.noteErr(err)
	}
	return result{affected: res.Affected}, nil
}

// QueryContext implements driver.QueryerContext: one-shot streaming
// query.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	if c.bad {
		return nil, driver.ErrBadConn
	}
	params, err := toParams(args)
	if err != nil {
		return nil, err
	}
	r, err := c.c.QueryContext(ctx, query, params...)
	if err != nil {
		return nil, c.noteErr(err)
	}
	return &rows{c: c, r: r}, nil
}

// Ping implements driver.Pinger.
func (c *conn) Ping(ctx context.Context) error {
	if c.bad {
		return driver.ErrBadConn
	}
	_, err := c.c.ExecContext(ctx, "SELECT 1")
	return c.noteErr(err)
}

// CheckNamedValue implements driver.NamedValueChecker: positional $n
// parameters only, stdlib type coercions.
func (c *conn) CheckNamedValue(nv *driver.NamedValue) error {
	if nv.Name != "" {
		return errors.New("ifdb: named parameters are not supported; use positional $n")
	}
	v, err := driver.DefaultParameterConverter.ConvertValue(nv.Value)
	if err != nil {
		return err
	}
	nv.Value = v
	return nil
}

// ---------------------------------------------------------------------------
// Stmt

type stmt struct {
	c *conn
	s *client.Stmt
}

// Close drops the server-side handle (driver.Stmt).
func (s *stmt) Close() error { return s.s.Close() }

// NumInput reports the statement's parameter count, derived from the
// parsed AST server-side (driver.Stmt).
func (s *stmt) NumInput() int { return s.s.NumParams() }

// Exec implements driver.Stmt.
func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.ExecContext(context.Background(), namedValues(args))
}

// Query implements driver.Stmt.
func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.QueryContext(context.Background(), namedValues(args))
}

// ExecContext implements driver.StmtExecContext over the wire-level
// prepared handle.
func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	if s.c.bad {
		return nil, driver.ErrBadConn
	}
	params, err := toParams(args)
	if err != nil {
		return nil, err
	}
	res, err := s.s.ExecContext(ctx, params...)
	if err != nil {
		return nil, s.c.noteErr(err)
	}
	return result{affected: res.Affected}, nil
}

// QueryContext implements driver.StmtQueryContext, streaming.
func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	if s.c.bad {
		return nil, driver.ErrBadConn
	}
	params, err := toParams(args)
	if err != nil {
		return nil, err
	}
	r, err := s.s.QueryContext(ctx, params...)
	if err != nil {
		return nil, s.c.noteErr(err)
	}
	return &rows{c: s.c, r: r}, nil
}

func namedValues(args []driver.Value) []driver.NamedValue {
	out := make([]driver.NamedValue, len(args))
	for i, a := range args {
		out[i] = driver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return out
}

// ---------------------------------------------------------------------------
// Rows / Result / Tx

type rows struct {
	c *conn
	r client.Rows
}

// Columns implements driver.Rows.
func (r *rows) Columns() []string { return r.r.Columns() }

// Close implements driver.Rows.
func (r *rows) Close() error {
	err := r.r.Close()
	if err != nil {
		r.c.noteErr(err)
	}
	return nil
}

// Next implements driver.Rows, converting one streamed row.
func (r *rows) Next(dest []driver.Value) error {
	if !r.r.Next() {
		if err := r.r.Err(); err != nil {
			return r.c.noteErr(err)
		}
		return io.EOF
	}
	row := r.r.Row()
	if len(row) != len(dest) {
		return fmt.Errorf("ifdb: row has %d columns, want %d", len(row), len(dest))
	}
	for i, v := range row {
		dest[i] = toDriverValue(v)
	}
	return nil
}

type result struct{ affected int64 }

// LastInsertId implements driver.Result (unsupported: use RETURNING-
// style reads or sequences).
func (result) LastInsertId() (int64, error) {
	return 0, errors.New("ifdb: LastInsertId is not supported")
}

// RowsAffected implements driver.Result.
func (r result) RowsAffected() (int64, error) { return r.affected, nil }

type tx struct{ c *conn }

// Commit implements driver.Tx.
func (t *tx) Commit() error {
	_, err := t.c.c.Exec("COMMIT")
	return t.c.noteErr(err)
}

// Rollback implements driver.Tx.
func (t *tx) Rollback() error {
	_, err := t.c.c.Exec("ROLLBACK")
	return t.c.noteErr(err)
}

// ---------------------------------------------------------------------------
// Value conversion

// toParams converts database/sql arguments into IFDB values.
func toParams(args []driver.NamedValue) ([]client.Value, error) {
	out := make([]client.Value, len(args))
	for i, a := range args {
		v, err := toValue(a.Value)
		if err != nil {
			return nil, fmt.Errorf("ifdb: parameter $%d: %w", a.Ordinal, err)
		}
		out[i] = v
	}
	return out, nil
}

func toValue(v driver.Value) (client.Value, error) {
	switch x := v.(type) {
	case nil:
		return types.Null, nil
	case int64:
		return types.NewInt(x), nil
	case float64:
		return types.NewFloat(x), nil
	case bool:
		return types.NewBool(x), nil
	case string:
		return types.NewText(x), nil
	case []byte:
		return types.NewText(string(x)), nil
	case time.Time:
		return types.NewTime(x), nil
	}
	return types.Null, fmt.Errorf("unsupported type %T", v)
}

// toDriverValue renders an IFDB value as a driver.Value.
func toDriverValue(v client.Value) driver.Value {
	switch v.Kind() {
	case types.KindNull:
		return nil
	case types.KindInt:
		return v.Int()
	case types.KindFloat:
		return v.Float()
	case types.KindText:
		return v.Text()
	case types.KindBool:
		return v.Bool()
	case types.KindTime:
		return v.Time()
	default:
		// Labels (the _label column) render as their display string.
		return v.String()
	}
}
