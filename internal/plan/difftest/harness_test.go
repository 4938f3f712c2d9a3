package difftest

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ifdb/internal/engine"
	"ifdb/internal/label"
	"ifdb/internal/types"
)

// side is one engine under differential test plus its named sessions
// and per-session prepared-handle caches.
type side struct {
	name     string
	e        *engine.Engine
	sessions map[string]*engine.Session
	prepared map[string]*engine.Prepared // "user\x00sql" -> handle
}

func (sd *side) session(user string) *engine.Session {
	s := sd.sessions[user]
	if s == nil {
		panic(fmt.Sprintf("difftest: unknown user %q on %s", user, sd.name))
	}
	return s
}

// pair is the harness: two engines differing only in Config.LegacyExec,
// with identical principals, tags, and sessions on each.
type pair struct {
	t      *testing.T
	legacy *side // materializing oracle (LegacyExec: true)
	stream *side // plan-based executor under test
}

func newPair(t *testing.T) *pair { return newPairPool(t, 0) }

// newPairPool is newPair with USING DISK tables behind a buffer pool of
// poolPages pages (0: the engine's default).
func newPairPool(t *testing.T, poolPages int) *pair {
	t.Helper()
	mk := func(name string, legacyExec bool) *side {
		e := engine.MustNew(engine.Config{IFC: true, LegacyExec: legacyExec, BufferPoolPages: poolPages})
		return &side{
			name:     name,
			e:        e,
			sessions: map[string]*engine.Session{"admin": e.NewSession(e.Admin())},
			prepared: map[string]*engine.Prepared{},
		}
	}
	return &pair{t: t, legacy: mk("legacy", true), stream: mk("stream", false)}
}

// addUser creates the same principal on both sides, resolves (creating
// on first use) the named secrecy tags, and opens a session
// contaminated with them. Tags are created in identical order on both
// engines, so tag IDs — and therefore label renderings — align.
func (p *pair) addUser(user string, tagNames ...string) {
	p.t.Helper()
	for _, sd := range []*side{p.legacy, p.stream} {
		prin := sd.e.CreatePrincipal(user)
		s := sd.e.NewSession(prin)
		for _, tn := range tagNames {
			tg, ok := sd.e.LookupTag(tn)
			if !ok {
				var err error
				tg, err = sd.e.CreateTag(prin, tn)
				if err != nil {
					p.t.Fatalf("%s: create tag %q: %v", sd.name, tn, err)
				}
			}
			if err := s.AddSecrecy(tg); err != nil {
				p.t.Fatalf("%s: contaminate %q with %q: %v", sd.name, user, tn, err)
			}
		}
		sd.sessions[user] = s
	}
}

// setup runs a statement on both sides as the given user and requires
// success on both (schema/seed statements, not comparison subjects —
// though the results are still diffed).
func (p *pair) setup(user, sqlText string, args ...types.Value) {
	p.t.Helper()
	res, err := p.exec(user, sqlText, args...)
	if err != nil {
		p.t.Fatalf("setup %q: %v", sqlText, err)
	}
	_ = res
}

// exec runs one statement on both sides and asserts byte-identical
// outcomes. It returns the streaming side's result.
func (p *pair) exec(user, sqlText string, args ...types.Value) (*engine.Result, error) {
	p.t.Helper()
	lres, lerr := p.legacy.session(user).Exec(sqlText, args...)
	sres, serr := p.stream.session(user).Exec(sqlText, args...)
	p.diff("exec", user, sqlText, lres, lerr, sres, serr)
	return sres, serr
}

// execPrepared runs one statement through prepared handles on both
// sides (prepared once per side+user+text) and asserts identical
// outcomes. The streaming side's plan cache serves repeat executions.
func (p *pair) execPrepared(user, sqlText string, args ...types.Value) (*engine.Result, error) {
	p.t.Helper()
	run := func(sd *side) (*engine.Result, error) {
		key := user + "\x00" + sqlText
		h := sd.prepared[key]
		if h == nil {
			var err error
			h, err = sd.session(user).Prepare(sqlText)
			if err != nil {
				return nil, err
			}
			sd.prepared[key] = h
		}
		return sd.session(user).ExecPrepared(h, args...)
	}
	lres, lerr := run(p.legacy)
	sres, serr := run(p.stream)
	p.diff("prepared", user, sqlText, lres, lerr, sres, serr)
	return sres, serr
}

// execStream runs a statement eagerly on the legacy side and through
// the streaming cursor (batch rows at a time) on the streaming side,
// asserting identical outcomes. This diffs the cursor's incremental
// pull path and transaction lifecycle, not just the plan.
func (p *pair) execStream(user, sqlText string, batch int, args ...types.Value) {
	p.t.Helper()
	lres, lerr := p.legacy.session(user).Exec(sqlText, args...)
	sres, serr := pullAll(p.stream.session(user), sqlText, batch, args...)
	p.diff(fmt.Sprintf("stream[batch=%d]", batch), user, sqlText, lres, lerr, sres, serr)
}

// pullAll drives ExecStream to exhaustion, materializing the batches
// into a Result for comparison.
func pullAll(s *engine.Session, sqlText string, batch int, args ...types.Value) (*engine.Result, error) {
	c, err := s.ExecStream(sqlText, args...)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	res := &engine.Result{Cols: c.Cols(), Affected: c.Affected()}
	for {
		rows, labels, err := c.NextBatch(batch)
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			return res, nil
		}
		res.Rows = append(res.Rows, rows...)
		res.RowLabels = append(res.RowLabels, labels...)
	}
}

// diff asserts two executions agreed: same error text, or same column
// names, kind-tagged row renderings, per-row labels, and affected
// count.
func (p *pair) diff(mode, user, sqlText string, lres *engine.Result, lerr error, sres *engine.Result, serr error) {
	p.t.Helper()
	if (lerr == nil) != (serr == nil) || (lerr != nil && lerr.Error() != serr.Error()) {
		p.t.Fatalf("%s diverged (%s as %s):\n  legacy err: %v\n  stream err: %v",
			mode, sqlText, user, lerr, serr)
	}
	if lerr != nil {
		return
	}
	want, got := renderResult(p.legacy, lres), renderResult(p.stream, sres)
	if want != got {
		p.t.Fatalf("%s diverged (%s as %s):\n-- legacy --\n%s\n-- stream --\n%s",
			mode, sqlText, user, want, got)
	}
}

// renderResult flattens a result into a canonical byte form: column
// header, then one line per row with kind-tagged values and the row's
// IFC label, then the affected count. Labels render as sorted tag
// *names* — tag IDs are randomly allocated per engine, so the raw IDs
// never align across the two sides.
func renderResult(sd *side, r *engine.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cols=[%s]\n", strings.Join(r.Cols, ","))
	for i, row := range r.Rows {
		for j, v := range row {
			if j > 0 {
				b.WriteByte('|')
			}
			if v.Kind() == types.KindLabel {
				fmt.Fprintf(&b, "%d:%s", v.Kind(), renderLabel(sd, v.Label()))
			} else {
				fmt.Fprintf(&b, "%d:%s", v.Kind(), v.String())
			}
		}
		if r.RowLabels != nil && i < len(r.RowLabels) {
			fmt.Fprintf(&b, " @%s", renderLabel(sd, r.RowLabels[i]))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "affected=%d\n", r.Affected)
	return b.String()
}

// renderLabel canonicalizes a label as its sorted tag names.
func renderLabel(sd *side, l label.Label) string {
	names := make([]string, len(l))
	for i, tg := range l {
		if n, ok := sd.e.TagName(tg); ok {
			names[i] = n
		} else {
			names[i] = fmt.Sprintf("#%d", uint64(tg))
		}
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ",") + "}"
}
