// Package platform is the Go analog of the paper's PHP-IF / Python-IF
// application platforms (§2, §7.2). It gives application code a
// DIFC-aware runtime:
//
//   - a per-process (per-request) label that the platform shares with
//     the database session, so contamination acquired in either place
//     confines the whole process;
//   - output interposition — a contaminated process cannot release
//     data to the outside world (web client), which is what turns
//     missing authentication checks into harmless blank pages rather
//     than data breaches (§6.1);
//   - authority closures and reduced-authority calls for the Principle
//     of Least Privilege (§3.3).
//
// The platform and the DBMS are both part of the trusted base; all
// application code above them is not. A script's only database handle
// is its Process: it offers statements and the checked label
// operations, and no way to set the label or the principal unchecked.
// Every authority check a Process makes is the engine's own, counted
// and audited like a session's.
package platform

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"ifdb"
)

// ErrContaminatedOutput is returned when a process attempts to release
// output while its label is non-empty: the outside world has an empty
// label, so the flow is forbidden (§3.2).
var ErrContaminatedOutput = errors.New("platform: process is too contaminated to release output")

// Runtime is one application platform instance bound to a database.
// It is trusted code: it opens processes and serves requests, and a
// script never sees it.
type Runtime struct {
	db *ifdb.DB
}

// New creates a platform runtime over db.
func New(db *ifdb.DB) *Runtime { return &Runtime{db: db} }

// DB returns the underlying database.
func (rt *Runtime) DB() *ifdb.DB { return rt.db }

// Process is one DIFC-tracked unit of execution — in the web setting,
// one request. It owns a database session (whose label is the process
// label) and an output buffer that is only released to the outside
// writer if the process ends uncontaminated.
type Process struct {
	sess *ifdb.Session
	out  bytes.Buffer
}

// NewProcess starts a process acting as principal p with an empty
// label.
func (rt *Runtime) NewProcess(p ifdb.Principal) *Process {
	return &Process{sess: rt.db.NewSession(p)}
}

// Exec runs SQL under the process label, which the platform and the
// database share (§7.2): a statement sees only the rows that label
// admits, and its writes carry it.
func (pr *Process) Exec(query string, params ...ifdb.Value) (*ifdb.Result, error) {
	return pr.sess.Exec(query, params...)
}

// QueryRow runs a query and returns its first row (ok=false if none).
func (pr *Process) QueryRow(query string, params ...ifdb.Value) ([]ifdb.Value, bool, error) {
	return pr.sess.QueryRow(query, params...)
}

// Label returns the current process label.
func (pr *Process) Label() ifdb.Label { return pr.sess.Label() }

// Principal returns the acting principal.
func (pr *Process) Principal() ifdb.Principal { return pr.sess.Principal() }

// AddSecrecy contaminates the process with t.
func (pr *Process) AddSecrecy(t ifdb.Tag) error { return pr.sess.AddSecrecy(t) }

// Declassify removes t, requiring authority for it. The check is the
// session's, against the current authority state, so a delegation made
// anywhere (trusted code, SQL delegate()) counts at once, and a denial
// is counted and audited.
func (pr *Process) Declassify(t ifdb.Tag) error { return pr.sess.Declassify(t) }

// DeclassifyAll removes every tag the principal has authority for;
// it returns the tags that remain.
func (pr *Process) DeclassifyAll() ifdb.Label {
	for _, t := range pr.sess.Label() {
		if pr.sess.HasAuthority(t) {
			_ = pr.sess.Declassify(t)
		}
	}
	return pr.sess.Label()
}

// Printf writes to the process's pending output buffer. Nothing
// reaches the outside world until Release.
func (pr *Process) Printf(format string, args ...interface{}) {
	fmt.Fprintf(&pr.out, format, args...)
}

// Write implements io.Writer into the pending output buffer.
func (pr *Process) Write(p []byte) (int, error) { return pr.out.Write(p) }

// OutputLen returns the pending output size (used by tests).
func (pr *Process) OutputLen() int { return pr.out.Len() }

// Release flushes pending output to w — but only if the process label
// is empty. This is the interposition that stopped the CarTel and
// HotCRP leaks: code that read data it had no authority to release
// simply produces no output (§6.1–6.2).
func (pr *Process) Release(w io.Writer) error {
	if lbl := pr.sess.Label(); !lbl.IsEmpty() {
		pr.out.Reset() // drop, never leak
		return fmt.Errorf("%w (label %v)", ErrContaminatedOutput, lbl)
	}
	_, err := pr.out.WriteTo(w)
	return err
}

// CallClosure runs fn with the named authority closure's principal in
// effect (§3.3).
func (pr *Process) CallClosure(name string, fn func() error) error {
	return pr.sess.CallClosure(name, fn)
}

// WithReducedAuthority runs fn with no authority at all.
func (pr *Process) WithReducedAuthority(fn func() error) error {
	return pr.sess.WithReducedAuthority(fn)
}

// Handler is one web script: it receives the process and the parsed
// request arguments and writes output through the process.
type Handler func(pr *Process, args map[string]string) error

// ServeRequest runs one request through a handler with full DIFC
// bracketing: fresh process, handler, then release-or-refuse. It
// returns the released output (empty if the process ended
// contaminated) and the handler error, mirroring how PHP-IF turns
// leaks into blank responses rather than failures.
func (rt *Runtime) ServeRequest(p ifdb.Principal, h Handler, args map[string]string, w io.Writer) error {
	pr := rt.NewProcess(p)
	if err := h(pr, args); err != nil {
		return err
	}
	if err := pr.Release(w); err != nil {
		if errors.Is(err, ErrContaminatedOutput) {
			// The request produced no releasable output; the client
			// sees an empty page, not an error oracle.
			return nil
		}
		return err
	}
	return nil
}
