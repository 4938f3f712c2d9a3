package hotcrp

import (
	"ifdb"
	"ifdb/platform"
)

// Untrusted web scripts. As in the CarTel port, none of this code
// holds authority; what each user can see is decided entirely by the
// labels and the authority state.

// PCListPage renders the program committee list through the PCMembers
// declassifying view. Any user — even with an empty label — gets the
// names, and only the names: the paper's bug that exposed full contact
// info for all users (§6.2) is structurally impossible because the
// view projects two columns and strips all_contacts only for them.
func (a *App) PCListPage(pr *platform.Process, _ map[string]string) error {
	res, err := pr.Exec(`SELECT firstname, lastname FROM pcmembers ORDER BY lastname`)
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		pr.Printf("pc: %v %v\n", row[0], row[1])
	}
	return nil
}

// ReviewsPage shows the reviews of one paper to a PC member. The
// script contaminates itself with each review tag it can obtain
// authority for; conflicted members lack the delegation and the rows
// simply do not appear (Query by Label), mirroring how the HotCRP port
// eliminated the premature-decision bugs (§6.2).
func (a *App) ReviewsPage(pr *platform.Process, args map[string]string) error {
	u, ok := a.userOf(pr)
	if !ok {
		return nil
	}
	_ = u
	paperID := argInt(args, "paper")
	for _, r := range a.reviewTagsFor(paperID) {
		// Raising the label is free; the question is whether we can
		// later declassify to release the output.
		if err := pr.AddSecrecy(r.Tag); err != nil {
			return err
		}
	}
	res, err := pr.Exec(
		`SELECT reviewid, score, comments FROM reviews WHERE paperid = $1 ORDER BY reviewid`,
		ifdb.Int(paperID))
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		pr.Printf("review %v: score %v: %v\n", row[0], row[1], row[2])
	}
	// Declassify what we may; if any read tag lacks authority the
	// output guard drops the page.
	pr.DeclassifyAll()
	return nil
}

// SearchPage is the paper search that once leaked decisions via
// sorting (§6.2). It left-joins decisions: for an author before
// release, the decision tuple is invisible, so the join yields NULL
// rather than an error — the outer-join NULLing pattern the paper
// highlights in §6.3.
func (a *App) SearchPage(pr *platform.Process, args map[string]string) error {
	if _, ok := a.userOf(pr); !ok {
		return nil
	}
	res, err := pr.Exec(
		`SELECT p.paperid, p.title, d.outcome
		 FROM papers p LEFT JOIN decisions d ON p.paperid = d.paperid
		 ORDER BY d.outcome DESC, p.paperid`)
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		pr.Printf("paper %v (%v): decision=%v\n", row[0], row[1], row[2])
	}
	return nil
}

// DecisionsPage shows released decisions (public copies).
func (a *App) DecisionsPage(pr *platform.Process, _ map[string]string) error {
	res, err := pr.Exec(`SELECT paperid, outcome FROM decisions_public ORDER BY paperid`)
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		pr.Printf("paper %v: %v\n", row[0], row[1])
	}
	return nil
}

// ContactPage shows the acting user their own contact info.
func (a *App) ContactPage(pr *platform.Process, _ map[string]string) error {
	u, ok := a.userOf(pr)
	if !ok {
		return nil
	}
	if err := pr.AddSecrecy(u.ContactTag); err != nil {
		return err
	}
	res, err := pr.Exec(
		`SELECT firstname, lastname, email, phone, affiliation FROM contactinfo WHERE contactid = $1`,
		ifdb.Int(u.ID))
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		pr.Printf("%v %v <%v> %v, %v\n", row[0], row[1], row[2], row[3], row[4])
	}
	return pr.Declassify(u.ContactTag)
}

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

func argInt(args map[string]string, key string) int64 {
	var n int64
	for _, c := range args[key] {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int64(c-'0')
	}
	return n
}
