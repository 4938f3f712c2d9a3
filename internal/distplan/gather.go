package distplan

import (
	"ifdb/internal/label"
	"ifdb/internal/types"
)

// Stream is the gateway's view of one rows stream: the shard-side
// fragment streams the Router opens satisfy it (client.Rows does,
// structurally), and the gateway's merged output implements it again.
type Stream interface {
	Columns() []string
	Next() bool
	Row() []types.Value
	RowLabel() label.Label
	Err() error
	Close() error
}

// Config wires a gateway merge to its cluster.
type Config struct {
	// Open opens the fragment stream on one shard. Implementations
	// carry their own retry/self-healing (the Router re-resolves a
	// stale shard map inside Open, mid-merge).
	Open   func(shard int) (Stream, error)
	Shards int
	// Window bounds how many shard streams are in flight at once for
	// consumption-ordered merges (union, aggregate gather). <=0 or
	// more than Shards means all. The ordered k-way merge needs every
	// stream's head and ignores it.
	Window int
	Params []types.Value
	// Wrap decorates a shard error for the client surface (the Router
	// keeps its historical fan-out error envelope). nil keeps errors
	// raw.
	Wrap func(shard int, err error) error
	// OnClose runs exactly once when the merged stream shuts down,
	// whether by exhaustion, error, or Close. The Router cancels the
	// fan-out context here, which propagates CANCEL to every shard
	// stream still open.
	OnClose func()
}

func (cfg *Config) window() int {
	w := cfg.Window
	if w <= 0 || w > cfg.Shards {
		w = cfg.Shards
	}
	return w
}

func (cfg *Config) wrap(shard int, err error) error {
	if err == nil {
		return nil
	}
	if cfg.Wrap != nil {
		return cfg.Wrap(shard, err)
	}
	return err
}

// feedRow is one shard row in flight to the merge.
type feedRow struct {
	vals []types.Value
	lbl  label.Label
}

// feed pumps one shard stream into a bounded channel from its own
// goroutine, so every shard makes progress concurrently while the
// merge consumes in whatever order it needs. cols is valid after ready
// closes; err is valid after ch closes.
type feed struct {
	shard int
	cols  []string
	err   error
	ready chan struct{}
	ch    chan feedRow
}

// feedDepth is the per-shard channel buffer: enough to decouple the
// producer from merge stalls without buffering unbounded rows.
const feedDepth = 64

// run opens the shard's stream and pumps it until it ends or stop
// closes; it is the feed's goroutine.
func (f *feed) run(cfg *Config, stop <-chan struct{}) {
	defer close(f.ch)
	s, err := cfg.Open(f.shard)
	if err != nil {
		f.err = cfg.wrap(f.shard, err)
		close(f.ready)
		return
	}
	f.cols = s.Columns()
	close(f.ready)
	for s.Next() {
		select {
		case f.ch <- feedRow{s.Row(), s.RowLabel()}:
		case <-stop:
			s.Close()
			return
		}
	}
	err = s.Err()
	s.Close()
	if err != nil {
		f.err = cfg.wrap(f.shard, err)
	}
}

// next returns the shard's next row; ok=false with err=nil is clean
// exhaustion.
func (f *feed) next() (feedRow, bool, error) {
	r, ok := <-f.ch
	if !ok {
		return feedRow{}, false, f.err
	}
	return r, true, nil
}

// gather consumes shards strictly in shard order — deterministic
// output — while up to window streams fill their feed buffers
// concurrently. It feeds the gateway: one feed a leaf under the
// ordered merge, the shard-order stream under the union and both
// aggregate merges.
type gather struct {
	cfg     *Config
	stop    chan struct{}
	feeds   []*feed
	cur     int
	started int
	stopped bool
}

// newGather lays out the feeds without touching a shard; start does.
func newGather(cfg *Config) *gather {
	g := &gather{cfg: cfg, stop: make(chan struct{}), feeds: make([]*feed, cfg.Shards)}
	for i := range g.feeds {
		g.feeds[i] = &feed{shard: i, ready: make(chan struct{}), ch: make(chan feedRow, feedDepth)}
	}
	return g
}

// start launches the first window of feeds.
func (g *gather) start() {
	for w := g.cfg.window(); g.started < w; {
		g.launch()
	}
}

func (g *gather) launch() {
	go g.feeds[g.started].run(g.cfg, g.stop)
	g.started++
}

// head blocks until shard 0's stream reports its header (or fails).
func (g *gather) head() ([]string, error) {
	if g.cfg.Shards == 0 {
		return nil, nil
	}
	f := g.feeds[0]
	<-f.ready
	return f.cols, f.err
}

// next returns the next row in shard order. ok=false with err=nil is
// clean exhaustion.
func (g *gather) next() (feedRow, bool, error) {
	for g.cur < len(g.feeds) {
		if r, ok, err := g.feeds[g.cur].next(); ok || err != nil {
			return r, ok, err
		}
		g.cur++
		if g.started < len(g.feeds) {
			g.launch()
		}
	}
	return feedRow{}, false, nil
}

// shutdown releases the feeds and fires OnClose exactly once.
func (g *gather) shutdown() {
	if g.stopped {
		return
	}
	g.stopped = true
	close(g.stop)
	if g.cfg.OnClose != nil {
		g.cfg.OnClose()
	}
}
