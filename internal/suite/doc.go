// Package suite is the golden query suite: one list of cases — setup,
// principal and label, SQL, arguments — whose recorded answers (columns,
// kind-tagged rows, per-row labels by tag name, affected count, exact
// error text) every way of reaching the database must give: an
// in-process session, the streaming cursor, client.Conn over the wire,
// a caught-up replica, a three-shard client.Router and the database/sql
// driver, each over MemHeap and over USING DISK behind a small buffer
// pool.
//
// cases_test.go is the list, backends_test.go the backends,
// suite_test.go the runner and the golden format; ARCHITECTURE.md
// § "The query suite" says how to add a case and regenerate goldens.
package suite
