// Package hotcrp is a port of the HotCRP conference-management system
// (paper §6.2) to IFDB. The DIFC policy protects contact information,
// paper reviews, and acceptance decisions:
//
//   - each user u has a tag u_contact (member of the all_contacts
//     compound) on their ContactInfo tuple;
//   - each review has its own tag, owned by its author and delegated
//     to the program chair, who later delegates it to non-conflicted
//     PC members;
//   - each paper's acceptance decision has a per-paper tag held by the
//     chair until decisions are officially released.
//
// The PCMembers declassifying view distills public PC names out of the
// sensitive ContactInfo table — the paper's flagship example of
// binding authority to a view definition (§4.3).
//
// THIS FILE IS THE TRUSTED BASE: tag setup, labeling of incoming data,
// and authority closures. The scripts in scripts.go hold no authority.
package hotcrp

import (
	"fmt"
	"sync"

	"ifdb"
	"ifdb/platform"
)

// App is one conference instance.
type App struct {
	DB *ifdb.DB
	RT *platform.Runtime

	chairPrincipal ifdb.Principal
	allContacts    ifdb.Tag

	mu       sync.Mutex
	users    map[int64]*User
	reviews  map[int64]*Review // reviewid -> tags
	decision map[int64]ifdb.Tag
}

// User is one registered account.
type User struct {
	ID         int64
	Name       string
	Principal  ifdb.Principal
	ContactTag ifdb.Tag
	IsPC       bool
}

// Review records the tag protecting one review.
type Review struct {
	ID       int64
	PaperID  int64
	Reviewer int64
	Tag      ifdb.Tag
}

// Setup builds the schema and the trusted policy objects.
func Setup(db *ifdb.DB) (*App, error) {
	a := &App{
		DB: db, RT: platform.New(db),
		users:    make(map[int64]*User),
		reviews:  make(map[int64]*Review),
		decision: make(map[int64]ifdb.Tag),
	}
	admin := db.AdminSession()
	ddl := `
	CREATE TABLE contactinfo (
		contactid BIGINT PRIMARY KEY,
		firstname TEXT, lastname TEXT,
		email TEXT, phone TEXT, affiliation TEXT,
		contact_tag BIGINT,
		CONSTRAINT contact_label LABEL EXACTLY (contact_tag)
	);
	CREATE TABLE pc (
		contactid BIGINT PRIMARY KEY
	);
	CREATE TABLE papers (
		paperid BIGINT PRIMARY KEY,
		title TEXT NOT NULL,
		authorid BIGINT,
		submitted BIGINT
	);
	CREATE TABLE conflicts (
		paperid BIGINT NOT NULL,
		contactid BIGINT NOT NULL,
		PRIMARY KEY (paperid, contactid)
	);
	CREATE TABLE reviews (
		reviewid BIGINT PRIMARY KEY,
		paperid BIGINT NOT NULL,
		reviewerid BIGINT NOT NULL,
		score BIGINT,
		comments TEXT
	);
	CREATE INDEX reviews_paper ON reviews (paperid);
	CREATE TABLE decisions (
		paperid BIGINT PRIMARY KEY,
		outcome TEXT
	);
	CREATE TABLE decisions_public (
		paperid BIGINT PRIMARY KEY,
		outcome TEXT
	);
	`
	if _, err := admin.Exec(ddl); err != nil {
		return nil, fmt.Errorf("hotcrp: schema: %w", err)
	}

	a.chairPrincipal = db.CreatePrincipal("hotcrp-chair")
	chair := db.NewSession(a.chairPrincipal)
	var err error
	if a.allContacts, err = chair.CreateTag("all_contacts"); err != nil {
		return nil, err
	}

	// is_pc_member backs the PCMembers declassifying view's WHERE
	// clause, as in the paper's CREATE VIEW example (§4.3).
	if err := db.RegisterProc("is_pc_member", isPCMemberProc); err != nil {
		return nil, err
	}
	// The chair owns all_contacts, so the chair may create the
	// declassifying view distilling PC names from ContactInfo.
	if _, err := chair.Exec(`
		CREATE VIEW pcmembers AS
		SELECT firstname, lastname FROM contactinfo
		WHERE is_pc_member(contactid)
		WITH DECLASSIFYING (all_contacts)`); err != nil {
		return nil, fmt.Errorf("hotcrp: pcmembers view: %w", err)
	}
	return a, nil
}

func isPCMemberProc(s *ifdb.Session, args []ifdb.Value) (ifdb.Value, error) {
	if len(args) != 1 {
		return ifdb.Null, fmt.Errorf("is_pc_member(contactid)")
	}
	_, found, err := s.QueryRow(`SELECT contactid FROM pc WHERE contactid = $1`, args[0])
	if err != nil {
		return ifdb.Null, err
	}
	return ifdb.Bool(found), nil
}

// Register creates an account: principal, contact tag (member of
// all_contacts), and the labeled ContactInfo tuple.
func (a *App) Register(id int64, first, last, email, affiliation string, isPC bool) (*User, error) {
	p := a.DB.CreatePrincipal("hotcrp:" + email)
	us := a.DB.NewSession(p)
	ct, err := us.CreateTag(fmt.Sprintf("c%d_contact", id), "all_contacts")
	if err != nil {
		return nil, err
	}
	// Label the contact data with the user's tag before writing —
	// trusted labeling code (§6.3: ~50 lines of this per app).
	if err := us.AddSecrecy(ct); err != nil {
		return nil, err
	}
	if _, err := us.Exec(`INSERT INTO contactinfo VALUES ($1, $2, $3, $4, $5, $6, $7)`,
		ifdb.Int(id), ifdb.Text(first), ifdb.Text(last), ifdb.Text(email),
		ifdb.Text("555-0100"), ifdb.Text(affiliation), ifdb.Int(int64(uint64(ct)))); err != nil {
		return nil, err
	}
	if isPC {
		admin := a.DB.AdminSession()
		if _, err := admin.Exec(`INSERT INTO pc VALUES ($1)`, ifdb.Int(id)); err != nil {
			return nil, err
		}
	}
	u := &User{ID: id, Name: first + " " + last, Principal: p, ContactTag: ct, IsPC: isPC}
	a.mu.Lock()
	a.users[id] = u
	a.mu.Unlock()
	return u, nil
}

// User returns a registered user.
func (a *App) User(id int64) (*User, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	u, ok := a.users[id]
	return u, ok
}

// SubmitPaper records a paper (paper metadata is public in this port;
// anonymity would add an author tag in the same pattern).
func (a *App) SubmitPaper(paperID int64, title string, author *User) error {
	s := a.DB.NewSession(author.Principal)
	_, err := s.Exec(`INSERT INTO papers VALUES ($1, $2, $3, 1)`,
		ifdb.Int(paperID), ifdb.Text(title), ifdb.Int(author.ID))
	return err
}

// DeclareConflict records a conflict of interest.
func (a *App) DeclareConflict(paperID, contactID int64) error {
	admin := a.DB.AdminSession()
	_, err := admin.Exec(`INSERT INTO conflicts VALUES ($1, $2)`,
		ifdb.Int(paperID), ifdb.Int(contactID))
	return err
}

// SubmitReview stores a review under a fresh per-review tag owned by
// the reviewer and delegated to the chair (§6.2).
func (a *App) SubmitReview(reviewID, paperID int64, reviewer *User, score int64, comments string) (*Review, error) {
	s := a.DB.NewSession(reviewer.Principal)
	rt, err := s.CreateTag(fmt.Sprintf("r%d_review", reviewID))
	if err != nil {
		return nil, err
	}
	if err := s.Delegate(a.chairPrincipal, rt); err != nil {
		return nil, err
	}
	if err := s.AddSecrecy(rt); err != nil {
		return nil, err
	}
	if _, err := s.Exec(`INSERT INTO reviews VALUES ($1, $2, $3, $4, $5)`,
		ifdb.Int(reviewID), ifdb.Int(paperID), ifdb.Int(reviewer.ID),
		ifdb.Int(score), ifdb.Text(comments)); err != nil {
		return nil, err
	}
	r := &Review{ID: reviewID, PaperID: paperID, Reviewer: reviewer.ID, Tag: rt}
	a.mu.Lock()
	a.reviews[reviewID] = r
	a.mu.Unlock()
	return r, nil
}

// DelegateReviews is the chair's authority closure from §6.2: it
// delegates each review's tag to the eligible (non-conflicted) PC
// members. Run by the chair.
func (a *App) DelegateReviews() error {
	chair := a.DB.NewSession(a.chairPrincipal)
	a.mu.Lock()
	reviews := make([]*Review, 0, len(a.reviews))
	for _, r := range a.reviews {
		reviews = append(reviews, r)
	}
	users := make([]*User, 0, len(a.users))
	for _, u := range a.users {
		users = append(users, u)
	}
	a.mu.Unlock()

	for _, r := range reviews {
		// Eligible = PC member with no conflict on the paper.
		for _, u := range users {
			if !u.IsPC {
				continue
			}
			row, conflicted, err := chair.QueryRow(
				`SELECT paperid FROM conflicts WHERE paperid = $1 AND contactid = $2`,
				ifdb.Int(r.PaperID), ifdb.Int(u.ID))
			if err != nil {
				return err
			}
			_ = row
			if conflicted {
				continue
			}
			if err := chair.Delegate(u.Principal, r.Tag); err != nil {
				return err
			}
		}
	}
	return nil
}

// RecordDecision stores an acceptance decision under a per-paper tag
// held by the chair until release (§6.2).
func (a *App) RecordDecision(paperID int64, outcome string) error {
	chair := a.DB.NewSession(a.chairPrincipal)
	dt, err := chair.CreateTag(fmt.Sprintf("p%d_decision", paperID))
	if err != nil {
		return err
	}
	if err := chair.AddSecrecy(dt); err != nil {
		return err
	}
	if _, err := chair.Exec(`INSERT INTO decisions VALUES ($1, $2)`,
		ifdb.Int(paperID), ifdb.Text(outcome)); err != nil {
		return err
	}
	a.mu.Lock()
	a.decision[paperID] = dt
	a.mu.Unlock()
	return nil
}

// ReleaseDecisions publishes all decisions: the chair reads them
// (contaminating itself with every decision tag), declassifies — its
// own tags — and writes the public copies.
func (a *App) ReleaseDecisions() error {
	chair := a.DB.NewSession(a.chairPrincipal)
	a.mu.Lock()
	tags := make(map[int64]ifdb.Tag, len(a.decision))
	for k, v := range a.decision {
		tags[k] = v
	}
	a.mu.Unlock()
	for pid, dt := range tags {
		if err := chair.AddSecrecy(dt); err != nil {
			return err
		}
		row, found, err := chair.QueryRow(`SELECT outcome FROM decisions WHERE paperid = $1`, ifdb.Int(pid))
		if err != nil {
			return err
		}
		if !found {
			continue
		}
		outcome := row[0]
		if err := chair.Declassify(dt); err != nil {
			return err
		}
		if _, err := chair.Exec(`INSERT INTO decisions_public VALUES ($1, $2)`,
			ifdb.Int(pid), outcome); err != nil {
			return err
		}
	}
	return nil
}

// reviewTagsFor returns the tags of reviews on a paper.
func (a *App) reviewTagsFor(paperID int64) []*Review {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []*Review
	for _, r := range a.reviews {
		if r.PaperID == paperID {
			out = append(out, r)
		}
	}
	return out
}
