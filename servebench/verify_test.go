package main

import "testing"

func TestLedgerRejectsReissuedCounters(t *testing.T) {
	l := newLedger()
	o := outcome{worker: 1, counter: 5}
	if err := l.record(0, o, false); err != nil {
		t.Fatal(err)
	}
	if err := l.record(1, o, false); err == nil {
		t.Error("a counter issued twice passed")
	}
	if err := l.record(0, outcome{worker: 1, counter: 4}, false); err == nil {
		t.Error("a client's counter went backwards and passed")
	}
	b := outcome{worker: 0, counter: 9, root: [8]uint32{1}}
	if err := l.record(0, b, true); err != nil {
		t.Fatal(err)
	}
	if err := l.record(1, b, true); err != nil {
		t.Errorf("two receipts of one batch were refused: %v", err)
	}
	b.root[0] = 2
	if err := l.record(2, b, true); err == nil {
		t.Error("one counter signed two roots and passed")
	}
	if got := l.highest(); got[0] != 9 || got[1] != 5 {
		t.Errorf("highest acknowledged counters %v", got)
	}
}
