package authority

import (
	"testing"

	"ifdb/internal/label"
)

// det installs a deterministic id source so tests get stable ids.
func det(s *State) {
	n := uint64(0)
	s.SetIDSourceForTest(func() uint64 { n++; return n })
}

func TestCreatePrincipalAndTag(t *testing.T) {
	s := NewState(nil)
	det(s)
	alice, _ := s.CreatePrincipal("alice")
	if !s.PrincipalExists(alice) {
		t.Fatal("principal missing")
	}
	if name, ok := s.PrincipalName(alice); !ok || name != "alice" {
		t.Fatalf("name: %q %v", name, ok)
	}
	tg, _, err := s.CreateTag(alice, "alice_medical")
	if err != nil {
		t.Fatal(err)
	}
	if !s.TagExists(tg) {
		t.Fatal("tag missing")
	}
	if owner, ok := s.TagOwner(tg); !ok || owner != alice {
		t.Fatal("owner wrong")
	}
	if name, ok := s.TagName(tg); !ok || name != "alice_medical" {
		t.Fatalf("tag name: %q", name)
	}
	// Owner has authority; strangers do not.
	if !s.HasAuthority(alice, tg) {
		t.Fatal("owner lacks authority")
	}
	bob, _ := s.CreatePrincipal("bob")
	if s.HasAuthority(bob, tg) {
		t.Fatal("stranger has authority")
	}
	if s.HasAuthority(NoPrincipal, tg) {
		t.Fatal("NoPrincipal has authority")
	}
}

func TestCreateTagUnknownOwnerOrCompound(t *testing.T) {
	s := NewState(nil)
	det(s)
	if _, _, err := s.CreateTag(Principal(99), "x"); err == nil {
		t.Fatal("unknown owner accepted")
	}
	p, _ := s.CreatePrincipal("p")
	if _, _, err := s.CreateTag(p, "x", label.Tag(777)); err == nil {
		t.Fatal("unknown compound accepted")
	}
}

func TestDelegationChainAndRevocation(t *testing.T) {
	s := NewState(nil)
	det(s)
	owner, _ := s.CreatePrincipal("owner")
	mid, _ := s.CreatePrincipal("mid")
	leaf, _ := s.CreatePrincipal("leaf")
	tg, _, _ := s.CreateTag(owner, "t")

	// owner -> mid -> leaf.
	if _, err := s.Delegate(owner, mid, tg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delegate(mid, leaf, tg); err != nil {
		t.Fatal(err)
	}
	if !s.HasAuthority(leaf, tg) {
		t.Fatal("chained delegation failed")
	}

	// Delegation requires the grantor to hold authority.
	outsider, _ := s.CreatePrincipal("outsider")
	if _, err := s.Delegate(outsider, leaf, tg); err == nil {
		t.Fatal("unauthorized delegation accepted")
	}

	// Revoking mid's grant severs leaf's only chain.
	if _, err := s.Revoke(owner, mid, tg); err != nil {
		t.Fatal(err)
	}
	if s.HasAuthority(mid, tg) {
		t.Fatal("mid retains authority after revocation")
	}
	if s.HasAuthority(leaf, tg) {
		t.Fatal("leaf retains authority after upstream revocation")
	}
	// The owner always keeps authority.
	if !s.HasAuthority(owner, tg) {
		t.Fatal("owner lost authority")
	}
}

func TestRevokeOnlyGrantorOrOwner(t *testing.T) {
	s := NewState(nil)
	det(s)
	owner, _ := s.CreatePrincipal("owner")
	a, _ := s.CreatePrincipal("a")
	b, _ := s.CreatePrincipal("b")
	tg, _, _ := s.CreateTag(owner, "t")
	if _, err := s.Delegate(owner, a, tg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Revoke(b, a, tg); err == nil {
		t.Fatal("third party revoked")
	}
	// The tag owner can strike any grant.
	if _, err := s.Revoke(owner, a, tg); err != nil {
		t.Fatal(err)
	}
	if s.HasAuthority(a, tg) {
		t.Fatal("authority survives owner revocation")
	}
}

func TestMultipleChainsSurviveOneRevocation(t *testing.T) {
	s := NewState(nil)
	det(s)
	owner, _ := s.CreatePrincipal("owner")
	a, _ := s.CreatePrincipal("a")
	b, _ := s.CreatePrincipal("b")
	leaf, _ := s.CreatePrincipal("leaf")
	tg, _, _ := s.CreateTag(owner, "t")
	for _, g := range []Principal{a, b} {
		if _, err := s.Delegate(owner, g, tg); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Delegate(g, leaf, tg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Revoke(a, leaf, tg); err != nil {
		t.Fatal(err)
	}
	if !s.HasAuthority(leaf, tg) {
		t.Fatal("second chain should keep leaf authoritative")
	}
}

func TestCompoundAuthority(t *testing.T) {
	hier := label.NewHierarchy()
	s := NewState(hier)
	det(s)
	app, _ := s.CreatePrincipal("app")
	alice, _ := s.CreatePrincipal("alice")
	all, _, _ := s.CreateTag(app, "all_drives")
	at, _, err := s.CreateTag(alice, "alice_drives", all)
	if err != nil {
		t.Fatal(err)
	}
	// Authority for the compound covers the member.
	if !s.HasAuthority(app, at) {
		t.Fatal("compound owner lacks member authority")
	}
	// Member authority does not generalize upward.
	if s.HasAuthority(alice, all) {
		t.Fatal("member owner has compound authority")
	}
	// Delegating the compound delegates the members.
	stats, _ := s.CreatePrincipal("stats")
	if _, err := s.Delegate(app, stats, all); err != nil {
		t.Fatal(err)
	}
	if !s.HasAuthority(stats, at) {
		t.Fatal("compound delegation does not reach member")
	}
}

func TestAuthorityForAndCanDeclassifyAll(t *testing.T) {
	s := NewState(nil)
	det(s)
	p, _ := s.CreatePrincipal("p")
	t1, _, _ := s.CreateTag(p, "t1")
	q, _ := s.CreatePrincipal("q")
	t2, _, _ := s.CreateTag(q, "t2")
	l := label.New(t1, t2)
	got := s.AuthorityFor(p, l)
	if !got.Equal(label.New(t1)) {
		t.Fatalf("AuthorityFor: %v", got)
	}
	if s.CanDeclassifyAll(p, l) {
		t.Fatal("CanDeclassifyAll overbroad")
	}
	if !s.CanDeclassifyAll(p, label.New(t1)) {
		t.Fatal("CanDeclassifyAll too narrow")
	}
}

func TestDelegationCycleDoesNotLoop(t *testing.T) {
	s := NewState(nil)
	det(s)
	owner, _ := s.CreatePrincipal("owner")
	a, _ := s.CreatePrincipal("a")
	b, _ := s.CreatePrincipal("b")
	tg, _, _ := s.CreateTag(owner, "t")
	if _, err := s.Delegate(owner, a, tg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delegate(a, b, tg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delegate(b, a, tg); err != nil {
		t.Fatal(err)
	}
	// Sever the root; the a<->b cycle must not sustain authority.
	if _, err := s.Revoke(owner, a, tg); err != nil {
		t.Fatal(err)
	}
	if s.HasAuthority(a, tg) || s.HasAuthority(b, tg) {
		t.Fatal("cycle sustained authority after root revocation")
	}
}

func TestClosureRegistry(t *testing.T) {
	s := NewState(nil)
	det(s)
	owner, _ := s.CreatePrincipal("owner")
	bound, _ := s.CreatePrincipal("bound")
	tg, _, _ := s.CreateTag(owner, "t")
	reg := NewClosureRegistry(s)

	// Creator must hold the authority being proved.
	stranger, _ := s.CreatePrincipal("stranger")
	if _, err := reg.Register("c1", stranger, bound, label.New(tg)); err == nil {
		t.Fatal("closure laundered authority")
	}
	cl, err := reg.Register("c1", owner, bound, label.New(tg))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := reg.Lookup("c1"); !ok || got.ID != cl.ID {
		t.Fatal("lookup failed")
	}
	if got, ok := reg.Get(cl.ID); !ok || got.Name != "c1" {
		t.Fatal("get failed")
	}
	if _, err := reg.Register("c1", owner, bound, nil); err == nil {
		t.Fatal("duplicate closure name accepted")
	}
	// Only creator or bound principal may drop.
	if err := reg.Drop("c1", stranger); err == nil {
		t.Fatal("stranger dropped closure")
	}
	if err := reg.Drop("c1", owner); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Lookup("c1"); ok {
		t.Fatal("closure survives drop")
	}
	if err := reg.Drop("c1", owner); err == nil {
		t.Fatal("dropping missing closure succeeded")
	}
	if _, err := reg.Register("c2", owner, Principal(424242), nil); err == nil {
		t.Fatal("unknown bound principal accepted")
	}
}

func TestTagIDsFit32Bits(t *testing.T) {
	s := NewState(nil)
	p, _ := s.CreatePrincipal("p") // real CSPRNG ids
	for i := 0; i < 50; i++ {
		tg, _, err := s.CreateTag(p, "", label.Label{}...)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(tg) > 0xFFFFFFFF || tg == label.InvalidTag {
			t.Fatalf("tag id %d out of storage range", tg)
		}
	}
}
