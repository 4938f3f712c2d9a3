package exec

import (
	"reflect"
	"sort"
	"testing"
)

// TestFuncTableReproducesNameLists: before the function table, five
// hand-kept name lists in four packages said what a function was. They
// are recorded here as they stood, and the table must answer each one.
// The client's list also held "call", which no engine ever defined; it
// is dropped.
func TestFuncTableReproducesNameLists(t *testing.T) {
	builtins := []string{"abs", "coalesce", "label_contains", "label_size", "length", "lower", "upper"}
	lists := []struct {
		name  string
		names []string
		in    func(FuncKind) bool
	}{
		// exec.aggregateNames: Eval's aggregate-in-scalar error, the
		// planner's and the split's aggregate detection.
		{"aggregateNames", []string{"avg", "count", "max", "min", "sum"},
			func(k FuncKind) bool { return k == Aggregate }},
		// exec.callBuiltin's switch: what Eval computes itself.
		{"callBuiltin", builtins,
			func(k FuncKind) bool { return k == Builtin }},
		// plan.pureScalarFuncs: with the aggregates, what lets LIMIT
		// stop early. shard_map(), which came after the lists, reads
		// node state and changes nothing, so it is one of them.
		{"pureScalarFuncs", []string{"abs", "coalesce", "current_principal", "getintegrity", "getlabel",
			"has_authority", "label_contains", "label_size", "length", "lower", "now", "shard_map", "sleep", "tag", "upper"},
			func(k FuncKind) bool { return k == Builtin || k == EnginePure }},
		// distplan.gatewayFns: the calls gateway glue may hold.
		{"gatewayFns", builtins,
			func(k FuncKind) bool { return k == Builtin }},
		// client.sideEffectFuncs, less "call": what keeps a statement
		// off replicas and out of shard-key routing. The authority
		// mutations are EngineEffect, so they keep a statement off
		// replicas too, and so is promote(), which came after the lists.
		{"sideEffectFuncs", []string{"addsecrecy", "create_principal", "create_sequence", "create_tag", "declassify",
			"delegate", "dropintegrity", "endorse", "nextval", "promote", "revoke"},
			func(k FuncKind) bool { return k == EngineEffect }},
	}
	for _, l := range lists {
		var got []string
		for name, f := range funcs {
			if l.in(f.kind) {
				got = append(got, name)
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, l.names) {
			t.Errorf("%s: table gives %v, want %v", l.name, got, l.names)
		}
	}
	for name, f := range funcs {
		if (f.call != nil) != (f.kind == Builtin) {
			t.Errorf("%s: kind %d with implementation %v", name, f.kind, f.call != nil)
		}
		if FuncKindOf(name) == NoFunc {
			t.Errorf("%s: in the table with no kind", name)
		}
	}
	if k := FuncKindOf("call"); k != NoFunc {
		t.Errorf(`"call" has kind %d; the engine defines no such function`, k)
	}
}
