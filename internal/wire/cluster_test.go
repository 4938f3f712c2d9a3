package wire

import "testing"

// TestStatusRoundTrip: the STATUS payload survives encode/decode in
// both roles, including the error field.
func TestStatusRoundTrip(t *testing.T) {
	for _, st := range []Status{
		{Replica: false, Epoch: 1, WALEnd: 12345},
		{Replica: true, Epoch: 7, AppliedLSN: 999, WALEnd: 1000, Err: "stream died"},
		{},
	} {
		got, err := DecodeStatus(st.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", st, err)
		}
		if *got != st {
			t.Fatalf("round trip: got %+v, want %+v", *got, st)
		}
	}
	if _, err := DecodeStatus(nil); err == nil {
		t.Fatal("empty status decoded")
	}
}

// TestReplEpochRoundTrip: the epoch rides every replication frame.
func TestReplEpochRoundTrip(t *testing.T) {
	h := &ReplHello{Token: "tok", From: 77, Epoch: 3}
	gh, err := DecodeReplHello(h.Encode())
	if err != nil || *gh != *h {
		t.Fatalf("hello: %+v %v", gh, err)
	}
	ok := &ReplOK{Resume: 88, Epoch: 4}
	gok, err := DecodeReplOK(ok.Encode())
	if err != nil || *gok != *ok {
		t.Fatalf("ok: %+v %v", gok, err)
	}
	se := &ReplSnapEnd{Start: 99, Epoch: 5}
	gse, err := DecodeReplSnapEnd(se.Encode())
	if err != nil || *gse != *se {
		t.Fatalf("snapend: %+v %v", gse, err)
	}
	rr := &ReplRecs{From: 1, To: 9, Epoch: 6, Data: []byte("frames")}
	grr, err := DecodeReplRecs(rr.Encode())
	if err != nil || grr.From != 1 || grr.To != 9 || grr.Epoch != 6 || string(grr.Data) != "frames" {
		t.Fatalf("recs: %+v %v", grr, err)
	}
}
