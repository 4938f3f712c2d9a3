package engine

import (
	"errors"
	"fmt"

	"ifdb/internal/plan"
	"ifdb/internal/types"
)

// Node is the server a session is served by: StreamErr reports a
// replica's fatal stream error for its row of plan.NodeTable, Promote
// (ifdb.DB.Promote; nil refuses) is what promote() runs, and ShardMap
// (nil or "" when unsharded) is the node's shard map in the -shard-map
// text format, what shard_map() returns.
type Node struct {
	StreamErr, Promote func() error
	ShardMap           func() string
}

// ServeNode makes n the node s is served by. The wire server calls it
// for each session it creates once the peer proved the platform token:
// an embedded session or a platform script is refused node state. Like
// SyncLabel it is a function, so ifdb.Session's method set gains none.
func ServeNode(s *Session, n *Node) { s.node = n }

func errNotServed(what string) error {
	return fmt.Errorf("engine: %s: node state is served only to a connection that proved the platform token", what)
}

// nodeRow is the session's row of plan.NodeTable (plan.Runtime.Node).
func (s *Session) nodeRow() ([]types.Value, error) {
	if s.node == nil {
		return nil, errNotServed(plan.NodeTable)
	}
	e := s.eng
	role, applied, streamErr := "primary", int64(0), types.Null
	if e.IsReplica() {
		role, applied = "replica", int64(e.ReplAppliedLSN())
		if s.node.StreamErr != nil {
			if err := s.node.StreamErr(); err != nil {
				streamErr = types.NewText(err.Error())
			}
		}
	}
	var walEnd int64
	if e.wal != nil {
		walEnd = int64(e.wal.End())
	}
	return []types.Value{types.NewText(role), types.NewInt(int64(e.Epoch())), types.NewInt(applied), types.NewInt(walEnd), streamErr}, nil
}

// promote is SQL's promote(): it promotes the replica serving the
// session and returns the new epoch. The effect is global, a write to
// an object with an empty label, so a contaminated session may not
// make it; nor may a procedure, trigger or closure body (stored SQL is
// refused when it is defined: exec.SessionOnly).
func (s *Session) promote() (types.Value, error) {
	if s.node == nil {
		return types.Null, errNotServed("promote()")
	}
	if s.procDepth > 0 || s.trigCtx != nil || s.closureDepth > 0 {
		return types.Null, fmt.Errorf("%w: promote() may be called only in a session's own statement, not from a procedure, trigger or closure body", ErrAuthority)
	}
	if err := s.requireEmptyLabel(); err != nil {
		return types.Null, err
	}
	if !s.eng.IsReplica() {
		return types.Null, ErrNotReplica
	}
	if s.node.Promote == nil {
		return types.Null, errors.New("engine: promote(): this server does not support promotion")
	}
	if err := s.node.Promote(); err != nil {
		return types.Null, err
	}
	return types.NewInt(int64(s.eng.Epoch())), nil
}

// shardMap is SQL's shard_map(): the map of the node serving the
// session, as text, or NULL when the node is unsharded.
func (s *Session) shardMap() (types.Value, error) {
	if s.node == nil {
		return types.Null, errNotServed("shard_map()")
	}
	if s.node.ShardMap != nil {
		if text := s.node.ShardMap(); text != "" {
			return types.NewText(text), nil
		}
	}
	return types.Null, nil
}
