package suite

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ifdb/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from what the reference backend answers now")

// suiteSeeds are the seeds of the seeded scenarios: IFDB_SUITE_SEEDS
// (comma-separated; the CI race job runs ten), else 1–5. Seed 1's
// answers are recorded.
func suiteSeeds(t *testing.T) []int64 {
	env := os.Getenv("IFDB_SUITE_SEEDS")
	if env == "" {
		return []int64{1, 2, 3, 4, 5}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("IFDB_SUITE_SEEDS: bad seed %q: %v", f, err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// TestSuite runs the case list on every backend over both heaps and
// requires each case's recorded answer: columns, kind-tagged values,
// per-row labels by tag name, affected count, or the exact error text.
func TestSuite(t *testing.T) {
	for _, sc := range scenarios(suiteSeeds(t)) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			want := expected(t, &sc)
			for _, b := range backends {
				for _, disk := range []bool{false, true} {
					b, disk := b, disk
					t.Run(b.name+"/"+heapName(disk), func(t *testing.T) {
						t.Parallel()
						check(t, &sc, b, disk, want)
					})
				}
			}
		})
	}
}

func heapName(disk bool) string {
	if disk {
		return "disk"
	}
	return "mem"
}

// play runs sc's cases in order on a fresh database and hands each
// recorded case's outcome to report. Setup must succeed; a case the
// backend cannot express is skipped, by its declared need, and said so.
// The database is returned as the cases left it.
func play(t testing.TB, sc *scenario, b backend, disk bool, report func(i int, c *tcase, o outcome)) db {
	d := b.open(t, sc)
	for i := range sc.cases {
		c := &sc.cases[i]
		if miss := c.needs & b.lacks; miss != 0 {
			t.Logf("skip [%d] %s: %s cannot do %v", i, oneLine(c.sql), b.name, miss)
			continue
		}
		text := c.sql
		if disk && strings.HasPrefix(text, "CREATE TABLE") {
			text += " USING DISK"
		}
		o := d.run(c, text)
		switch {
		case !c.setup:
			report(i, c, o)
		case o.err != "":
			t.Fatalf("setup [%d] %s as %s: %s", i, oneLine(c.sql), c.user, o.err)
		}
	}
	return d
}

// check plays sc on one backend and heap against the expected answers.
func check(t *testing.T, sc *scenario, b backend, disk bool, want []string) {
	bad := 0
	play(t, sc, b, disk, func(i int, c *tcase, o outcome) {
		withLabels := !b.noRowLabels && !c.repLabels
		w := want[i]
		if !withLabels {
			w = rowLabel.ReplaceAllString(w, "")
		}
		if g := o.render(c, withLabels); g != w {
			t.Errorf("[%d] %s as %s %v\n-- want --\n%s-- got --\n%s", i, oneLine(c.sql), c.user, c.args, w, g)
			if bad++; bad == 10 {
				t.FailNow()
			}
		}
	})
}

// expected returns the rendered answer of every recorded case of sc:
// its golden file, or — for a seed nobody recorded, and under -update,
// which then writes the file — what the reference backend answers.
func expected(t *testing.T, sc *scenario) []string {
	path := filepath.Join("testdata", sc.name+".golden")
	data, err := os.ReadFile(path)
	if err == nil && !*update {
		return parseGolden(t, sc, path, string(data))
	}
	if !*update {
		t.Logf("no %s: every backend must answer as %s/mem does", path, backends[0].name)
	}
	want := make([]string, len(sc.cases))
	var file strings.Builder
	play(t, sc, backends[0], false, func(i int, c *tcase, o outcome) {
		want[i] = o.render(c, true)
		fmt.Fprintf(&file, "%s\n%s\n", header(i, c), want[i])
	})
	if *update {
		if err := os.WriteFile(path, []byte(file.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// header names a case in its golden file: a file recorded from another
// case list is refused, not compared.
func header(i int, c *tcase) string {
	h := fmt.Sprintf("# %d %s: %s", i, c.user, oneLine(c.sql))
	if len(c.args) > 0 {
		h += " " + strings.Join(tagNames{}.cells(c.args), ",")
	}
	return h
}

func oneLine(text string) string { return strings.Join(strings.Fields(text), " ") }

func parseGolden(t *testing.T, sc *scenario, path, data string) []string {
	want := make([]string, len(sc.cases))
	blocks := strings.Split(strings.TrimSuffix(data, "\n\n"), "\n\n")
	next := 0
	for i := range sc.cases {
		c := &sc.cases[i]
		if c.setup {
			continue
		}
		if next == len(blocks) {
			t.Fatalf("%s ends before case [%d] %s: regenerate it (go test ./internal/suite -run TestSuite -update)", path, i, oneLine(c.sql))
		}
		head, body, _ := strings.Cut(blocks[next], "\n")
		if head != header(i, c) {
			t.Fatalf("%s was recorded from another case list: regenerate it (go test ./internal/suite -run TestSuite -update)\nfile: %s\nlist: %s", path, head, header(i, c))
		}
		want[i] = body + "\n"
		next++
	}
	if next != len(blocks) {
		t.Fatalf("%s holds %d answers, the case list has %d: regenerate it (go test ./internal/suite -run TestSuite -update)", path, len(blocks), next)
	}
	return want
}

// digestOver is the row count past which an answer is recorded as a
// count and two digests (values, labels), not row by row.
const digestOver = 40

// rowLabel matches what render adds for labels: a row's " @{tags}" and
// a digested answer's " labels:…".
var rowLabel = regexp.MustCompile(`(?m)( @\{[^{}]*\}| labels:[0-9a-f]+)$`)

// render is an outcome's canonical text. Rows of an unordered case are
// sorted; without labels the text is render-with-labels less whatever
// rowLabel matches.
func (o outcome) render(c *tcase, withLabels bool) string {
	if o.err != "" {
		return fmt.Sprintf("error %q\n", o.err)
	}
	idx := make([]int, len(o.rows))
	for i := range idx {
		idx[i] = i
	}
	if c.unordered {
		sort.SliceStable(idx, func(a, b int) bool {
			ra, rb := idx[a], idx[b]
			if o.rows[ra] != o.rows[rb] {
				return o.rows[ra] < o.rows[rb]
			}
			return o.labels[ra] < o.labels[rb]
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cols %s\n", strings.Join(o.cols, ","))
	if len(idx) > digestOver {
		values, labels := fnv.New64a(), fnv.New64a()
		for _, i := range idx {
			fmt.Fprintf(values, "%s\n", o.rows[i])
			fmt.Fprintf(labels, "%s\n", o.labels[i])
		}
		fmt.Fprintf(&b, "rows %d values:%016x", len(idx), values.Sum64())
		if withLabels {
			fmt.Fprintf(&b, " labels:%016x", labels.Sum64())
		}
		b.WriteByte('\n')
	} else {
		for _, i := range idx {
			b.WriteString("row " + o.rows[i])
			if withLabels {
				b.WriteString(" @" + o.labels[i])
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "affected %d\n", o.affected)
	return b.String()
}

// TestPairsStraddleShards pins what battery's tuple-key cases assume of
// the Router backends: the two pairs rows live on different shards.
func TestPairsStraddleShards(t *testing.T) {
	m := &wire.ShardMap{Shards: make([]wire.Shard, 3)}
	shardOf := func(k int64) uint32 { return m.ShardOf(strconv.FormatInt(k, 10)) }
	if a, b := shardOf(pairKeys[0]), shardOf(pairKeys[1]); a == b {
		t.Fatalf("pairs keys %v both hash to shard %d of 3: pick keys that do not", pairKeys, a)
	}
}
