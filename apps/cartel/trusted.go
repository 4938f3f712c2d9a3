// Package cartel is a port of the CarTel mobile sensor network's web
// application (paper §6.1) to IFDB: cars upload GPS measurements, a
// trigger-driven pipeline turns them into drives, and a small web
// portal shows users their own (and their friends') data.
//
// The information flow design follows the paper exactly. Each user u
// has two tags:
//
//   - u_drives   — covers u's historical drives (member of all_drives)
//   - u_location — covers u's current location (member of all_locations)
//
// Raw GPS measurements get the label {u_drives, u_location}: they
// reveal both the drive and the current position. Derived drives get
// {u_drives}, so a user can share drive history with friends (by
// delegating u_drives) without exposing current location.
//
// THIS FILE IS THE TRUSTED BASE of the application: it creates tags,
// labels incoming data, and registers the authority closures. Per the
// paper's accounting (§6.3), everything else — the scripts, the
// pipeline logic — runs without authority and cannot leak what it
// reads. The trusted-base experiment (E6) counts the lines in this
// file against the whole application.
package cartel

import (
	"fmt"
	"sync"

	"ifdb"
	"ifdb/platform"
)

// App is one CarTel deployment.
type App struct {
	DB *ifdb.DB
	RT *platform.Runtime

	// appPrincipal owns the compound tags; pipelinePrincipal is the
	// closure identity with authority for all_locations only.
	appPrincipal      ifdb.Principal
	pipelinePrincipal ifdb.Principal
	statsPrincipal    ifdb.Principal

	allDrives    ifdb.Tag
	allLocations ifdb.Tag

	mu    sync.Mutex
	users map[string]*User
}

// User is one registered CarTel user with their principal and tags.
type User struct {
	ID        int64
	Name      string
	Principal ifdb.Principal
	DrivesTag ifdb.Tag
	LocTag    ifdb.Tag
}

// Setup creates the schema, compound tags, pipeline principals, and
// authority closures. It must run before any requests.
func Setup(db *ifdb.DB) (*App, error) {
	a := &App{DB: db, RT: platform.New(db), users: make(map[string]*User)}

	admin := db.AdminSession()
	ddl := `
	CREATE TABLE users (
		userid   BIGINT PRIMARY KEY,
		username TEXT UNIQUE NOT NULL,
		password TEXT NOT NULL,
		email    TEXT,
		drives_tag   BIGINT,
		location_tag BIGINT
	);
	CREATE TABLE cars (
		carid  BIGINT PRIMARY KEY,
		userid BIGINT NOT NULL REFERENCES users (userid),
		plate  TEXT
	);
	CREATE INDEX cars_user ON cars (userid);
	CREATE TABLE locations (
		locid BIGINT PRIMARY KEY,
		carid BIGINT NOT NULL,
		lat DOUBLE PRECISION, lon DOUBLE PRECISION,
		ts BIGINT
	);
	CREATE INDEX locations_car ON locations (carid, ts);
	CREATE TABLE locationslatest (
		carid BIGINT PRIMARY KEY,
		lat DOUBLE PRECISION, lon DOUBLE PRECISION,
		ts BIGINT
	);
	CREATE TABLE drives (
		driveid BIGINT PRIMARY KEY,
		carid BIGINT NOT NULL,
		start_ts BIGINT, end_ts BIGINT,
		distance DOUBLE PRECISION,
		npoints BIGINT,
		last_lat DOUBLE PRECISION, last_lon DOUBLE PRECISION
	);
	CREATE INDEX drives_car ON drives (carid, end_ts);
	CREATE TABLE friends (
		userid BIGINT NOT NULL REFERENCES users (userid),
		frienduserid BIGINT NOT NULL REFERENCES users (userid),
		PRIMARY KEY (userid, frienduserid)
	);
	`
	if _, err := admin.Exec(ddl); err != nil {
		return nil, fmt.Errorf("cartel: schema: %w", err)
	}

	a.appPrincipal = db.CreatePrincipal("cartel-app")
	var err error
	appSess := db.NewSession(a.appPrincipal)
	if a.allDrives, err = appSess.CreateTag("all_drives"); err != nil {
		return nil, err
	}
	if a.allLocations, err = appSess.CreateTag("all_locations"); err != nil {
		return nil, err
	}

	// The pipeline closure principal gets authority for all_locations
	// only: it can remove location tags while deriving drives, but can
	// never declassify drive history (§6.1).
	a.pipelinePrincipal = db.CreatePrincipal("cartel-pipeline")
	if err := appSess.Delegate(a.pipelinePrincipal, a.allLocations); err != nil {
		return nil, err
	}
	// The statistics closure can declassify all_drives to publish
	// aggregate traffic data (the paper's "average speed of all CarTel
	// users on a road" example, §3.2).
	a.statsPrincipal = db.CreatePrincipal("cartel-stats")
	if err := appSess.Delegate(a.statsPrincipal, a.allDrives); err != nil {
		return nil, err
	}

	// driveupdate runs as a stored authority closure attached to the
	// locations AFTER INSERT trigger (§6.1): it reads the raw
	// measurement, maintains LocationsLatest, declassifies the
	// location tag, and extends or opens the drive.
	if err := db.RegisterClosureProc("driveupdate", driveUpdateProc,
		a.appPrincipal, a.pipelinePrincipal, ifdb.NewLabel(a.allLocations)); err != nil {
		return nil, err
	}
	if _, err := admin.Exec(`CREATE TRIGGER locations_driveupdate AFTER INSERT ON locations EXECUTE PROCEDURE driveupdate`); err != nil {
		return nil, err
	}

	// drives_top's aggregate runs under this closure (authority for
	// all_drives, to declassify the statistical summary).
	if err := db.RegisterClosure("cartel_stats", a.appPrincipal, a.statsPrincipal,
		ifdb.NewLabel(a.allDrives)); err != nil {
		return nil, err
	}
	return a, nil
}

// Register creates a user: their principal, their two tags (members
// of the app compounds), and their row in users. This is trusted
// labeling code: it decides which tags protect whose data.
func (a *App) Register(id int64, name, password, email string) (*User, error) {
	p := a.DB.CreatePrincipal("user:" + name)
	us := a.DB.NewSession(p)
	dt, err := us.CreateTag(fmt.Sprintf("u%d_drives", id), "all_drives")
	if err != nil {
		return nil, err
	}
	lt, err := us.CreateTag(fmt.Sprintf("u%d_location", id), "all_locations")
	if err != nil {
		return nil, err
	}
	admin := a.DB.AdminSession()
	if _, err := admin.Exec(
		`INSERT INTO users VALUES ($1, $2, $3, $4, $5, $6)`,
		ifdb.Int(id), ifdb.Text(name), ifdb.Text(password), ifdb.Text(email),
		ifdb.Int(int64(uint64(dt))), ifdb.Int(int64(uint64(lt))),
	); err != nil {
		return nil, err
	}
	u := &User{ID: id, Name: name, Principal: p, DrivesTag: dt, LocTag: lt}
	a.mu.Lock()
	a.users[name] = u
	a.mu.Unlock()
	return u, nil
}

// AddCar registers a car for a user.
func (a *App) AddCar(carID, userID int64, plate string) error {
	admin := a.DB.AdminSession()
	_, err := admin.Exec(`INSERT INTO cars VALUES ($1, $2, $3)`,
		ifdb.Int(carID), ifdb.Int(userID), ifdb.Text(plate))
	return err
}

// Authenticate is the application's authentication routine — part of
// the trusted base (Fig. 1). It returns the user's principal only on a
// correct password; every handler that skips this runs with no
// authority and therefore cannot release anything sensitive (the
// paper's twelve unauthenticated scripts became harmless, §6.1).
func (a *App) Authenticate(name, password string) (*User, bool) {
	a.mu.Lock()
	u, ok := a.users[name]
	a.mu.Unlock()
	if !ok {
		return nil, false
	}
	s := a.DB.AdminSession()
	row, found, err := s.QueryRow(`SELECT password FROM users WHERE username = $1`, ifdb.Text(name))
	if err != nil || !found {
		return nil, false
	}
	if row[0].Text() != password {
		return nil, false
	}
	return u, true
}

// UserByID looks up a registered user.
func (a *App) UserByID(id int64) (*User, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, u := range a.users {
		if u.ID == id {
			return u, true
		}
	}
	return nil, false
}

// UserByName looks up a registered user by name.
func (a *App) UserByName(name string) (*User, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	u, ok := a.users[name]
	return u, ok
}

// Befriend lets owner allow friend to see their past drives by
// delegating the owner's drives tag (not the location tag: friends
// see drive history, never current location — the paper's policy).
func (a *App) Befriend(owner, friend *User) error {
	s := a.DB.NewSession(owner.Principal)
	if err := s.Delegate(friend.Principal, owner.DrivesTag); err != nil {
		return err
	}
	admin := a.DB.AdminSession()
	if _, err := admin.Exec(`INSERT INTO friends VALUES ($1, $2)`,
		ifdb.Int(owner.ID), ifdb.Int(friend.ID)); err != nil {
		return err
	}
	return nil
}
