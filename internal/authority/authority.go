// Package authority implements the IFDB authority state (paper §3.2–3.3):
// principals, tag ownership, delegation and revocation of declassification
// authority, and authority closures.
//
// Information flow policy in IFDB is expressed entirely through this
// state: a tag's owner decides, by delegating and exercising authority,
// who may remove ("declassify") the tag from a process label.
//
// The authority state is itself an object with an empty label, so the
// engine refuses to mutate it from a contaminated process — otherwise
// delegations would be a covert channel. That check lives in the engine;
// this package provides the mechanism.
package authority

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"

	"ifdb/internal/label"
)

// Principal identifies an entity with security interests — a user, a
// role, or a closure identity. The zero value is invalid.
type Principal uint64

// NoPrincipal is the zero Principal; processes running as NoPrincipal
// hold no authority at all.
const NoPrincipal Principal = 0

// State is the authority database: which principals exist, which tags
// exist (and their owners and compound links), and who has been
// delegated authority for what. It is safe for concurrent use.
type State struct {
	mu sync.RWMutex

	hier *label.Hierarchy

	principals map[Principal]*principalInfo
	tags       map[label.Tag]*tagInfo

	// delegations[tag][grantee] = set of grantors who delegated tag to
	// grantee. Authority is retained while at least one chain from the
	// owner remains; revocation removes the grantor's edge.
	delegations map[label.Tag]map[Principal]map[Principal]bool

	// idSource produces unpredictable ids (allocation-channel
	// mitigation, paper §7.3). Overridable for deterministic tests.
	idSource func() uint64

	// log, when set, receives every successful authority mutation so
	// the engine can record it in the write-ahead log. Hooks run after
	// the state lock is released (the WAL append must never happen
	// under a state lock — see wal.Writer.Checkpoint).
	log ChangeLogger
}

// ChangeLogger receives authority-state mutations for durability.
// Each call returns the log position of the record it wrote.
// Implementations must be safe for concurrent use.
type ChangeLogger interface {
	LogPrincipal(id uint64, name string) (uint64, error)
	LogTag(id, owner uint64, name string, parents []uint64) (uint64, error)
	LogDelegate(tag, grantor, grantee uint64) (uint64, error)
	LogRevoke(tag, revoker, grantee uint64) (uint64, error)
}

// SetChangeLogger installs the mutation hook (nil disables logging).
func (s *State) SetChangeLogger(l ChangeLogger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = l
}

func (s *State) logger() ChangeLogger {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.log
}

type principalInfo struct {
	name string
}

type tagInfo struct {
	name  string
	owner Principal
}

// NewState returns an empty authority state sharing the given tag
// hierarchy. If hier is nil a fresh hierarchy is created.
func NewState(hier *label.Hierarchy) *State {
	if hier == nil {
		hier = label.NewHierarchy()
	}
	return &State{
		hier:        hier,
		principals:  make(map[Principal]*principalInfo),
		tags:        make(map[label.Tag]*tagInfo),
		delegations: make(map[label.Tag]map[Principal]map[Principal]bool),
		idSource:    cryptoID,
	}
}

// cryptoID draws 64 unpredictable bits from crypto/rand.
func cryptoID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; if it does,
		// refusing to continue is safer than a predictable id.
		panic(fmt.Sprintf("authority: entropy source failed: %v", err))
	}
	return binary.LittleEndian.Uint64(b[:])
}

// SetIDSourceForTest replaces the id generator. Tests use this to get
// deterministic ids; production code must not call it.
func (s *State) SetIDSourceForTest(f func() uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idSource = f
}

// Hierarchy returns the tag hierarchy shared with the engine.
func (s *State) Hierarchy() *label.Hierarchy { return s.hier }

// CreatePrincipal creates a new principal and returns its id.
// Any process may create principals (the new principal starts with no
// authority, so creation reveals nothing). It also returns the log
// position of its record (0 when nothing was logged), as the other
// mutations below do.
func (s *State) CreatePrincipal(name string) (Principal, uint64) {
	s.mu.Lock()
	var id Principal
	for {
		id = Principal(s.idSource())
		if id == NoPrincipal {
			continue
		}
		if _, exists := s.principals[id]; exists {
			continue
		}
		s.principals[id] = &principalInfo{name: name}
		break
	}
	s.mu.Unlock()
	var at uint64
	if l := s.logger(); l != nil {
		// Best effort: the signature predates durability, so a failed
		// append (disk full) cannot be surfaced here.
		at, _ = l.LogPrincipal(uint64(id), name)
	}
	return id, at
}

// PrincipalName returns the diagnostic name of p.
func (s *State) PrincipalName(p Principal) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	info, ok := s.principals[p]
	if !ok {
		return "", false
	}
	return info.name, true
}

// PrincipalExists reports whether p has been created.
func (s *State) PrincipalExists(p Principal) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.principals[p]
	return ok
}

// CreateTag creates a new tag owned by owner, optionally declaring it a
// member of the given compound tags (links are immutable afterwards).
// The creating principal becomes the owner with complete authority.
func (s *State) CreateTag(owner Principal, name string, compounds ...label.Tag) (label.Tag, uint64, error) {
	s.mu.Lock()
	if _, ok := s.principals[owner]; !ok {
		s.mu.Unlock()
		return label.InvalidTag, 0, fmt.Errorf("authority: unknown principal %d", owner)
	}
	for _, c := range compounds {
		if _, ok := s.tags[c]; !ok {
			s.mu.Unlock()
			return label.InvalidTag, 0, fmt.Errorf("authority: unknown compound tag %d", c)
		}
	}
	var t label.Tag
	for {
		// Tag ids are drawn from the CSPRNG (allocation-channel
		// mitigation, §7.3) but masked to 32 bits so that the on-disk
		// encoding can store each tag in 4 bytes, matching the space
		// cost the paper reports in §8.3.
		id := s.idSource() & 0xFFFFFFFF
		t = label.Tag(id)
		if t == label.InvalidTag {
			continue
		}
		if _, exists := s.tags[t]; !exists {
			break
		}
	}
	s.tags[t] = &tagInfo{name: name, owner: owner}
	s.mu.Unlock()

	if err := s.hier.Declare(t, compounds...); err != nil {
		// Roll back the tag registration; Declare only fails on
		// programmer error (cycle/duplicate), keep state consistent.
		s.mu.Lock()
		delete(s.tags, t)
		s.mu.Unlock()
		return label.InvalidTag, 0, err
	}
	var at uint64
	if l := s.logger(); l != nil {
		parents := make([]uint64, len(compounds))
		for i, c := range compounds {
			parents[i] = uint64(c)
		}
		var err error
		if at, err = l.LogTag(uint64(t), uint64(owner), name, parents); err != nil {
			s.mu.Lock()
			delete(s.tags, t)
			s.mu.Unlock()
			s.hier.Retract(t)
			return label.InvalidTag, 0, err
		}
	}
	return t, at, nil
}

// TagExists reports whether t has been created.
func (s *State) TagExists(t label.Tag) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.tags[t]
	return ok
}

// TagName returns the diagnostic name of t.
func (s *State) TagName(t label.Tag) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	info, ok := s.tags[t]
	if !ok {
		return "", false
	}
	return info.name, true
}

// TagOwner returns the owning principal of t.
func (s *State) TagOwner(t label.Tag) (Principal, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	info, ok := s.tags[t]
	if !ok {
		return NoPrincipal, false
	}
	return info.owner, true
}

// Delegate grants grantee authority for tag t on behalf of grantor.
// The grantor must itself have authority for t. Delegations form a
// graph; authority holds while any chain from the tag owner remains.
func (s *State) Delegate(grantor, grantee Principal, t label.Tag) (uint64, error) {
	s.mu.Lock()
	if _, ok := s.tags[t]; !ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("authority: unknown tag %d", t)
	}
	if _, ok := s.principals[grantee]; !ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("authority: unknown grantee principal %d", grantee)
	}
	if !s.hasAuthorityLocked(grantor, t) {
		s.mu.Unlock()
		return 0, fmt.Errorf("authority: principal %d lacks authority for tag %d", grantor, t)
	}
	byGrantee := s.delegations[t]
	if byGrantee == nil {
		byGrantee = make(map[Principal]map[Principal]bool)
		s.delegations[t] = byGrantee
	}
	grantors := byGrantee[grantee]
	if grantors == nil {
		grantors = make(map[Principal]bool)
		byGrantee[grantee] = grantors
	}
	grantors[grantor] = true
	s.mu.Unlock()
	if l := s.logger(); l != nil {
		return l.LogDelegate(uint64(t), uint64(grantor), uint64(grantee))
	}
	return 0, nil
}

// Revoke removes a previous delegation from grantor to grantee for tag
// t. Only the original grantor (or the tag owner) may revoke. Authority
// that the grantee still derives via other chains is unaffected.
func (s *State) Revoke(revoker, grantee Principal, t label.Tag) (uint64, error) {
	s.mu.Lock()
	info, ok := s.tags[t]
	if !ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("authority: unknown tag %d", t)
	}
	grantors := s.delegations[t][grantee]
	if info.owner == revoker {
		// The owner may strike any grantor's edge to this grantee.
		delete(s.delegations[t], grantee)
	} else {
		if grantors == nil || !grantors[revoker] {
			s.mu.Unlock()
			return 0, fmt.Errorf("authority: principal %d has no delegation to %d for tag %d", revoker, grantee, t)
		}
		delete(grantors, revoker)
		if len(grantors) == 0 {
			delete(s.delegations[t], grantee)
		}
	}
	s.mu.Unlock()
	if l := s.logger(); l != nil {
		return l.LogRevoke(uint64(t), uint64(revoker), uint64(grantee))
	}
	return 0, nil
}

// HasAuthority reports whether principal p may declassify tag t:
// p owns t, owns a compound containing t, or holds a live delegation
// chain rooted at such an owner.
func (s *State) HasAuthority(p Principal, t label.Tag) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hasAuthorityLocked(p, t)
}

func (s *State) hasAuthorityLocked(p Principal, t label.Tag) bool {
	if p == NoPrincipal {
		return false
	}
	// Direct authority for the tag or any compound that covers it.
	if s.authForExactLocked(p, t, nil) {
		return true
	}
	for _, parent := range s.hier.Parents(t) {
		if s.hasAuthorityLocked(p, parent) {
			return true
		}
	}
	return false
}

// authForExactLocked reports whether p has authority for exactly tag t
// (ownership or a live delegation chain), ignoring compound subsumption.
// visited guards against delegation cycles.
func (s *State) authForExactLocked(p Principal, t label.Tag, visited map[Principal]bool) bool {
	info, ok := s.tags[t]
	if !ok {
		return false
	}
	if info.owner == p {
		return true
	}
	if visited == nil {
		visited = map[Principal]bool{}
	}
	if visited[p] {
		return false
	}
	visited[p] = true
	for grantor := range s.delegations[t][p] {
		if s.authForExactLocked(grantor, t, visited) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Recovery and checkpoint support

// RestorePrincipal re-creates a principal with its original id during
// crash recovery (ids must be stable across restarts: they appear in
// delegations, closures, and application state). Idempotent.
func (s *State) RestorePrincipal(id Principal, name string) {
	if id == NoPrincipal {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.principals[id]; !exists {
		s.principals[id] = &principalInfo{name: name}
	}
}

// RestoreTag re-creates a tag with its original id, owner, and
// compound links during crash recovery. Idempotent.
func (s *State) RestoreTag(t label.Tag, owner Principal, name string, parents []label.Tag) error {
	s.mu.Lock()
	if _, exists := s.tags[t]; exists {
		s.mu.Unlock()
		return nil
	}
	s.tags[t] = &tagInfo{name: name, owner: owner}
	s.mu.Unlock()
	if err := s.hier.Declare(t, parents...); err != nil {
		s.mu.Lock()
		delete(s.tags, t)
		s.mu.Unlock()
		return err
	}
	return nil
}

// RestoreDelegation re-adds a delegation edge without authority checks
// or logging (the edge was vetted when first granted). Idempotent.
func (s *State) RestoreDelegation(grantor, grantee Principal, t label.Tag) {
	s.mu.Lock()
	defer s.mu.Unlock()
	byGrantee := s.delegations[t]
	if byGrantee == nil {
		byGrantee = make(map[Principal]map[Principal]bool)
		s.delegations[t] = byGrantee
	}
	grantors := byGrantee[grantee]
	if grantors == nil {
		grantors = make(map[Principal]bool)
		byGrantee[grantee] = grantors
	}
	grantors[grantor] = true
}

// RestoreRevoke re-applies a logged revocation without authority
// checks or logging. Idempotent: replay (and replication re-shipping)
// can present a revocation whose edge is already gone — because the
// snapshot reflects it, or the batch is being re-applied after a
// reconnect — and re-striking an absent edge is a no-op, not an
// error.
func (s *State) RestoreRevoke(revoker, grantee Principal, t label.Tag) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.tags[t]
	if !ok {
		return
	}
	grantors := s.delegations[t][grantee]
	if info.owner == revoker {
		delete(s.delegations[t], grantee)
		return
	}
	delete(grantors, revoker)
	if len(grantors) == 0 {
		delete(s.delegations[t], grantee)
	}
}

// PrincipalByName finds a principal by its diagnostic name (first
// match; names are not required to be unique). Recovery-aware
// applications use this to re-find their principals after a restart.
func (s *State) PrincipalByName(name string) (Principal, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, info := range s.principals {
		if info.name == name {
			return id, true
		}
	}
	return NoPrincipal, false
}

// ExportedPrincipal is one principal in a checkpoint snapshot.
type ExportedPrincipal struct {
	ID   Principal
	Name string
}

// ExportedTag is one tag in a checkpoint snapshot.
type ExportedTag struct {
	ID      label.Tag
	Owner   Principal
	Name    string
	Parents []label.Tag
}

// ExportedDelegation is one delegation edge in a checkpoint snapshot.
type ExportedDelegation struct {
	Tag              label.Tag
	Grantor, Grantee Principal
}

// Export returns the full authority state for checkpointing.
func (s *State) Export() ([]ExportedPrincipal, []ExportedTag, []ExportedDelegation) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	prins := make([]ExportedPrincipal, 0, len(s.principals))
	for id, info := range s.principals {
		prins = append(prins, ExportedPrincipal{ID: id, Name: info.name})
	}
	tags := make([]ExportedTag, 0, len(s.tags))
	for id, info := range s.tags {
		tags = append(tags, ExportedTag{ID: id, Owner: info.owner, Name: info.name, Parents: s.hier.Parents(id)})
	}
	var dels []ExportedDelegation
	for t, byGrantee := range s.delegations {
		for grantee, grantors := range byGrantee {
			for grantor := range grantors {
				dels = append(dels, ExportedDelegation{Tag: t, Grantor: grantor, Grantee: grantee})
			}
		}
	}
	return prins, tags, dels
}

// AuthorityFor returns the subset of l that principal p may declassify.
func (s *State) AuthorityFor(p Principal, l label.Label) label.Label {
	var out label.Label
	for _, t := range l {
		if s.HasAuthority(p, t) {
			out = append(out, t)
		}
	}
	return out
}

// CanDeclassifyAll reports whether p holds authority for every tag in l.
func (s *State) CanDeclassifyAll(p Principal, l label.Label) bool {
	for _, t := range l {
		if !s.HasAuthority(p, t) {
			return false
		}
	}
	return true
}
