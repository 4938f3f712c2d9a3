package cartel

import (
	"fmt"
	"strconv"

	"ifdb"
	"ifdb/platform"
)

// This file contains the CarTel web scripts of Fig. 3 — the UNTRUSTED
// application code. None of it holds authority beyond what the acting
// user's principal carries; if any script reads data it cannot
// declassify, the platform's output interposition drops the response.

// userOf extracts the acting user from request args; scripts that skip
// authentication (as twelve of the original CarTel scripts did) simply
// run with no authority and produce no sensitive output.
func (a *App) userOf(pr *platform.Process) (*User, bool) {
	p := pr.Principal()
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, u := range a.users {
		if u.Principal == p {
			return u, true
		}
	}
	return nil, false
}

// GetCars is get_cars.php: the AJAX endpoint polling current car
// locations (50% of requests). It reads LocationsLatest, which carries
// {u_drives, u_location}; the owner declassifies both to respond.
func (a *App) GetCars(pr *platform.Process, _ map[string]string) error {
	u, ok := a.userOf(pr)
	if !ok {
		return nil // unauthenticated: no authority, no output
	}
	if err := pr.AddSecrecy(u.DrivesTag); err != nil {
		return err
	}
	if err := pr.AddSecrecy(u.LocTag); err != nil {
		return err
	}
	res, err := pr.Exec(
		`SELECT c.carid, ll.lat, ll.lon, ll.ts
		 FROM cars c JOIN locationslatest ll ON c.carid = ll.carid
		 WHERE c.userid = $1`, ifdb.Int(u.ID))
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		pr.Printf("car=%v lat=%v lon=%v ts=%v\n", row[0], row[1], row[2], row[3])
	}
	if err := pr.Declassify(u.LocTag); err != nil {
		return err
	}
	return pr.Declassify(u.DrivesTag)
}

// Cars is cars.php: the car-locations page (30%). Same data as
// GetCars plus car metadata and rendering.
func (a *App) Cars(pr *platform.Process, _ map[string]string) error {
	u, ok := a.userOf(pr)
	if !ok {
		return nil
	}
	if err := pr.AddSecrecy(u.DrivesTag); err != nil {
		return err
	}
	if err := pr.AddSecrecy(u.LocTag); err != nil {
		return err
	}
	res, err := pr.Exec(
		`SELECT c.carid, c.plate, ll.lat, ll.lon, ll.ts
		 FROM cars c LEFT JOIN locationslatest ll ON c.carid = ll.carid
		 WHERE c.userid = $1 ORDER BY c.carid`, ifdb.Int(u.ID))
	if err != nil {
		return err
	}
	pr.Printf("<h1>%s's cars</h1>\n", u.Name)
	for _, row := range res.Rows {
		pr.Printf("<tr><td>%v</td><td>%v</td><td>%v,%v</td><td>%v</td></tr>\n",
			row[0], row[1], row[2], row[3], row[4])
	}
	if err := pr.Declassify(u.LocTag); err != nil {
		return err
	}
	return pr.Declassify(u.DrivesTag)
}

// Drives is drives.php: the drive log (8%), including friends' drives.
// The script contaminates itself with its own drives tag plus the tag
// of each friend who delegated, then declassifies what it is allowed
// to. If the user coerces the page into reading a non-friend's drives
// (the paper's URL-manipulation bug), the declassify fails and the
// response never leaves the platform.
func (a *App) Drives(pr *platform.Process, args map[string]string) error {
	u, ok := a.userOf(pr)
	if !ok {
		return nil
	}
	ids := []int64{u.ID}
	tags := []ifdb.Tag{u.DrivesTag}

	// Friends who delegated their drives tag to us. (An attacker can
	// pass an arbitrary "friend" arg — exactly the original bug — and
	// the output guard will eat the response.)
	if fid, ok := args["friend"]; ok {
		if n, err := strconv.ParseInt(fid, 10, 64); err == nil {
			if fu, ok := a.UserByID(n); ok {
				ids = append(ids, fu.ID)
				tags = append(tags, fu.DrivesTag)
			}
		}
	} else {
		res, err := pr.Exec(
			`SELECT userid FROM friends WHERE frienduserid = $1`, ifdb.Int(u.ID))
		if err != nil {
			return err
		}
		for _, row := range res.Rows {
			if fu, ok := a.UserByID(row[0].Int()); ok {
				ids = append(ids, fu.ID)
				tags = append(tags, fu.DrivesTag)
			}
		}
	}

	for _, t := range tags {
		if err := pr.AddSecrecy(t); err != nil {
			return err
		}
	}
	for _, id := range ids {
		res, err := pr.Exec(
			`SELECT d.driveid, d.start_ts, d.end_ts, d.distance
			 FROM cars c JOIN drives d ON d.carid = c.carid
			 WHERE c.userid = $1 ORDER BY d.start_ts DESC LIMIT 20`, ifdb.Int(id))
		if err != nil {
			return err
		}
		pr.Printf("drives for user %d:\n", id)
		for _, row := range res.Rows {
			pr.Printf("  drive %v: %v..%v %.2f km\n", row[0], row[1], row[2], row[3].Float())
		}
	}
	for _, t := range tags {
		if err := pr.Declassify(t); err != nil {
			// No authority for this tag (non-friend): leave the
			// process contaminated; Release will drop the output.
			return nil
		}
	}
	return nil
}

// DrivesTop is drives_top.php: common driving patterns across all
// users (8%). It runs under the cartel_stats authority closure:
// contaminate with the all_drives compound, aggregate, declassify the
// summary (§3.2's "average speed of all users" pattern).
func (a *App) DrivesTop(pr *platform.Process, _ map[string]string) error {
	if _, ok := a.userOf(pr); !ok {
		return nil
	}
	return pr.CallClosure("cartel_stats", func() error {
		if err := pr.AddSecrecy(a.allDrives); err != nil {
			return err
		}
		res, err := pr.Exec(
			`SELECT npoints, COUNT(*) AS n, AVG(distance) AS avg_km
			 FROM drives GROUP BY npoints ORDER BY n DESC LIMIT 10`)
		if err != nil {
			return err
		}
		for _, row := range res.Rows {
			pr.Printf("pattern len=%v count=%v avg=%v\n", row[0], row[1], row[2])
		}
		// The aggregate is safe to publish; the closure's authority
		// for all_drives covers every member tag.
		return pr.Declassify(a.allDrives)
	})
}

// Friends is friends.php: view and set friends (3%). The friends list
// itself is public; adding a friend delegates the drives tag, which
// requires an empty label — conveniently true at request start.
func (a *App) Friends(pr *platform.Process, args map[string]string) error {
	u, ok := a.userOf(pr)
	if !ok {
		return nil
	}
	if name, ok := args["add"]; ok {
		if fu, ok := a.UserByName(name); ok && fu.ID != u.ID {
			if err := a.Befriend(u, fu); err != nil {
				return err
			}
			pr.Printf("added friend %s\n", name)
		}
	}
	res, err := pr.Exec(
		`SELECT u.username FROM friends f JOIN users u ON f.userid = u.userid
		 WHERE f.frienduserid = $1 ORDER BY u.username`, ifdb.Int(u.ID))
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		pr.Printf("friend: %v\n", row[0])
	}
	return nil
}

// EditAccount is edit_account.php: personal info (1%). The users row
// is public in this port (the paper's CarTel protected location data;
// contact data would get its own tags as in HotCRP).
func (a *App) EditAccount(pr *platform.Process, args map[string]string) error {
	u, ok := a.userOf(pr)
	if !ok {
		return nil
	}
	if email, ok := args["email"]; ok {
		if _, err := pr.Exec(
			`UPDATE users SET email = $2 WHERE userid = $1`,
			ifdb.Int(u.ID), ifdb.Text(email)); err != nil {
			return err
		}
	}
	row, _, err := pr.QueryRow(
		`SELECT username, email FROM users WHERE userid = $1`, ifdb.Int(u.ID))
	if err != nil {
		return err
	}
	pr.Printf("account %v email=%v\n", row[0], row[1])
	return nil
}

// Login is login.php: authenticate and report. It exists so the
// latency experiment (Fig. 5) has all seven scripts.
func (a *App) Login(pr *platform.Process, args map[string]string) error {
	u, ok := a.Authenticate(args["user"], args["password"])
	if !ok {
		pr.Printf("login failed\n")
		return nil
	}
	pr.Printf("welcome %s\n", u.Name)
	return nil
}

// Handlers returns the script table keyed by the names in Fig. 3.
func (a *App) Handlers() map[string]platform.Handler {
	return map[string]platform.Handler{
		"get_cars.php":     a.GetCars,
		"cars.php":         a.Cars,
		"drives.php":       a.Drives,
		"drives_top.php":   a.DrivesTop,
		"friends.php":      a.Friends,
		"edit_account.php": a.EditAccount,
		"login.php":        a.Login,
	}
}

// describe is a helper for examples.
func describe(u *User) string { return fmt.Sprintf("user %d (%s)", u.ID, u.Name) }
