package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := Entry{
		Index: 42,
		Writes: []Write{
			{Addr: 100, Data: []byte("hello")},
			{Addr: 2048, Data: []byte{}},
			{Addr: 0, Data: bytes.Repeat([]byte{7}, 100)},
		},
	}
	buf := make([]byte, 1024)
	n, err := e.Encode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != e.Size() {
		t.Fatalf("Encode wrote %d, Size says %d", n, e.Size())
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != e.Index || len(got.Writes) != len(e.Writes) {
		t.Fatalf("decoded %+v", got)
	}
	for i := range e.Writes {
		if got.Writes[i].Addr != e.Writes[i].Addr || !bytes.Equal(got.Writes[i].Data, e.Writes[i].Data) {
			t.Fatalf("write %d mismatch: %+v vs %+v", i, got.Writes[i], e.Writes[i])
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(index uint64, addr1, addr2 uint64, d1, d2 []byte) bool {
		if index == 0 {
			index = 1
		}
		e := Entry{Index: index, Writes: []Write{{Addr: addr1, Data: d1}, {Addr: addr2, Data: d2}}}
		buf := make([]byte, e.Size()+64)
		if _, err := e.Encode(buf); err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		return got.Index == e.Index &&
			len(got.Writes) == 2 &&
			got.Writes[0].Addr == addr1 && bytes.Equal(got.Writes[0].Data, d1) &&
			got.Writes[1].Addr == addr2 && bytes.Equal(got.Writes[1].Data, d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeTooLarge(t *testing.T) {
	e := Entry{Index: 1, Writes: []Write{{Addr: 0, Data: make([]byte, 100)}}}
	buf := make([]byte, 50)
	if _, err := e.Encode(buf); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestDecodeCorruption(t *testing.T) {
	e := Entry{Index: 7, Writes: []Write{{Addr: 10, Data: []byte("payload")}}}
	buf := make([]byte, 256)
	n, _ := e.Encode(buf)

	// Flip each byte of the encoded image; decode must never return a
	// different valid entry silently.
	for i := 0; i < n; i++ {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0xff
		got, err := Decode(mut)
		if err == nil && (got.Index != e.Index || !bytes.Equal(got.Writes[0].Data, e.Writes[0].Data)) {
			t.Fatalf("bit flip at %d produced different valid entry %+v", i, got)
		}
	}
}

func TestDecodeEmptySlot(t *testing.T) {
	if _, err := Decode(make([]byte, 128)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zeroed slot: err = %v, want ErrCorrupt", err)
	}
	if _, err := Decode(make([]byte, 4)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short slot: err = %v, want ErrCorrupt", err)
	}
}

func TestGeometry(t *testing.T) {
	g := Geometry{Base: 4096, SlotSize: 256, Slots: 16}
	if g.TotalSize() != 4096 {
		t.Fatalf("TotalSize = %d", g.TotalSize())
	}
	if off := g.SlotOffset(1); off != 4096+256 {
		t.Fatalf("SlotOffset(1) = %d", off)
	}
	if off := g.SlotOffset(17); off != 4096+256 {
		t.Fatalf("SlotOffset(17) = %d (wraps to slot 1)", off)
	}
}

// writeEntryToArea encodes e into its slot within a raw log area image.
func writeEntryToArea(t *testing.T, g Geometry, area []byte, e Entry) {
	t.Helper()
	slot := int(e.Index % uint64(g.Slots))
	if _, err := e.Encode(area[slot*g.SlotSize : (slot+1)*g.SlotSize]); err != nil {
		t.Fatal(err)
	}
}

func TestScanWindowBasic(t *testing.T) {
	g := Geometry{SlotSize: 128, Slots: 8}
	area := make([]byte, g.TotalSize())
	for i := uint64(1); i <= 5; i++ {
		writeEntryToArea(t, g, area, Entry{Index: i, Writes: []Write{{Addr: i * 10, Data: []byte{byte(i)}}}})
	}
	entries := g.ScanWindow(area)
	if len(entries) != 5 {
		t.Fatalf("got %d entries, want 5", len(entries))
	}
	for i, e := range entries {
		if e.Index != uint64(i+1) {
			t.Fatalf("entry %d has index %d", i, e.Index)
		}
	}
}

func TestScanWindowDropsStaleLaps(t *testing.T) {
	g := Geometry{SlotSize: 128, Slots: 4}
	area := make([]byte, g.TotalSize())
	// Lap 1: indexes 1..4 fill all slots. Then 5,6 overwrite slots 1,2.
	for i := uint64(1); i <= 6; i++ {
		writeEntryToArea(t, g, area, Entry{Index: i, Writes: nil})
	}
	entries := g.ScanWindow(area)
	// Window is (6-4, 6] = {3,4,5,6}.
	want := []uint64{3, 4, 5, 6}
	if len(entries) != len(want) {
		t.Fatalf("got %d entries %v, want %v", len(entries), entries, want)
	}
	for i, e := range entries {
		if e.Index != want[i] {
			t.Fatalf("entries[%d].Index = %d, want %d", i, e.Index, want[i])
		}
	}
}

func TestScanWindowSkipsTorn(t *testing.T) {
	g := Geometry{SlotSize: 128, Slots: 8}
	area := make([]byte, g.TotalSize())
	writeEntryToArea(t, g, area, Entry{Index: 1, Writes: []Write{{Addr: 1, Data: []byte("a")}}})
	writeEntryToArea(t, g, area, Entry{Index: 2, Writes: []Write{{Addr: 2, Data: []byte("b")}}})
	// Tear entry 2: corrupt a payload byte.
	area[2*g.SlotSize+20] ^= 0xff
	entries := g.ScanWindow(area)
	if len(entries) != 1 || entries[0].Index != 1 {
		t.Fatalf("entries = %+v, want just index 1", entries)
	}
}

func TestScanWindowRejectsWrongSlot(t *testing.T) {
	g := Geometry{SlotSize: 128, Slots: 8}
	area := make([]byte, g.TotalSize())
	// Craft a valid entry with index 3 but place it in slot 5.
	e := Entry{Index: 3, Writes: nil}
	buf := make([]byte, g.SlotSize)
	e.Encode(buf)
	copy(area[5*g.SlotSize:], buf)
	if entries := g.ScanWindow(area); len(entries) != 0 {
		t.Fatalf("misplaced entry accepted: %+v", entries)
	}
}

func TestReconcileUnion(t *testing.T) {
	g := Geometry{SlotSize: 128, Slots: 8}
	// Node A has entries 1,2,3; node B has 2,3,4; node C is nil (failed).
	a := make([]byte, g.TotalSize())
	b := make([]byte, g.TotalSize())
	for _, i := range []uint64{1, 2, 3} {
		writeEntryToArea(t, g, a, Entry{Index: i, Writes: []Write{{Addr: i, Data: []byte{byte(i)}}}})
	}
	for _, i := range []uint64{2, 3, 4} {
		writeEntryToArea(t, g, b, Entry{Index: i, Writes: []Write{{Addr: i, Data: []byte{byte(i)}}}})
	}
	merged := Reconcile(g, [][]byte{a, b, nil})
	want := []uint64{1, 2, 3, 4}
	if len(merged) != len(want) {
		t.Fatalf("merged %d entries, want %d", len(merged), len(want))
	}
	for i, e := range merged {
		if e.Index != want[i] {
			t.Fatalf("merged[%d].Index = %d, want %d", i, e.Index, want[i])
		}
	}
}

func TestReconcileWindowAcrossNodes(t *testing.T) {
	g := Geometry{SlotSize: 128, Slots: 4}
	// Node A is behind: has 1..4. Node B has 5..7 (overwriting 1..3's slots).
	a := make([]byte, g.TotalSize())
	b := make([]byte, g.TotalSize())
	for i := uint64(1); i <= 4; i++ {
		writeEntryToArea(t, g, a, Entry{Index: i, Writes: nil})
	}
	for i := uint64(1); i <= 7; i++ {
		writeEntryToArea(t, g, b, Entry{Index: i, Writes: nil})
	}
	merged := Reconcile(g, [][]byte{a, b})
	// Global window is (7-4, 7] = {4,5,6,7}.
	want := []uint64{4, 5, 6, 7}
	if len(merged) != len(want) {
		t.Fatalf("merged = %+v, want indexes %v", merged, want)
	}
	for i, e := range merged {
		if e.Index != want[i] {
			t.Fatalf("merged[%d].Index = %d, want %d", i, e.Index, want[i])
		}
	}
}

func TestReconcileQuickAckedEntriesSurvive(t *testing.T) {
	// Property: any entry present on a majority of nodes is always in the
	// reconciled log when at most Fm snapshots are missing.
	g := Geometry{SlotSize: 128, Slots: 16}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 5 // Fm = 2
		areas := make([][]byte, n)
		for i := range areas {
			areas[i] = make([]byte, g.TotalSize())
		}
		// Write entries 1..10; each to a random majority of nodes.
		acked := map[uint64]bool{}
		for idx := uint64(1); idx <= 10; idx++ {
			e := Entry{Index: idx, Writes: []Write{{Addr: idx, Data: []byte{byte(idx)}}}}
			perm := rng.Perm(n)
			copies := 3 + rng.Intn(3) // 3..5 replicas: always a majority
			for _, node := range perm[:copies] {
				slot := int(idx % uint64(g.Slots))
				e.Encode(areas[node][slot*g.SlotSize:])
			}
			acked[idx] = true
		}
		// Fail up to Fm=2 random nodes.
		for _, node := range rng.Perm(n)[:rng.Intn(3)] {
			areas[node] = nil
		}
		merged := Reconcile(g, areas)
		found := map[uint64]bool{}
		for _, e := range merged {
			found[e.Index] = true
		}
		for idx := range acked {
			if !found[idx] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// reconcileByScan is Reconcile as it was before it became one pass over the
// slots — each area scanned on its own, the union taken, first area winning —
// kept as the reference the one-pass version is checked against.
func reconcileByScan(g Geometry, areas [][]byte) []Entry {
	byIndex := make(map[uint64]Entry)
	var maxIndex uint64
	for _, area := range areas {
		if area == nil {
			continue
		}
		for _, e := range g.ScanWindow(area) {
			if _, ok := byIndex[e.Index]; !ok {
				byIndex[e.Index] = e
			}
			maxIndex = max(maxIndex, e.Index)
		}
	}
	lo := uint64(0)
	if maxIndex > uint64(g.Slots) {
		lo = maxIndex - uint64(g.Slots)
	}
	out := make([]Entry, 0, len(byIndex))
	for idx, e := range byIndex {
		if idx > lo {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// TestReconcileMatchesScanReference: agreeing copies, copies that diverge
// within one index, stale laps, torn slots, entries in the wrong slot and nil
// areas all reconcile to what scanning every area separately gave — entry for
// entry, payloads and write addresses included — in the table's cases and
// over random mixtures of them.
func TestReconcileMatchesScanReference(t *testing.T) {
	g := Geometry{SlotSize: 96, Slots: 8}
	entry := func(idx uint64, tag string) Entry {
		return Entry{Index: idx, Writes: []Write{{Addr: idx / 2, Data: []byte(tag)}}}
	}
	area := func(es ...Entry) []byte {
		a := make([]byte, g.TotalSize())
		for _, e := range es {
			writeEntryToArea(t, g, a, e)
		}
		return a
	}
	tear := func(a []byte, idx uint64) []byte {
		a[int(idx%uint64(g.Slots))*g.SlotSize+entryHeaderSize] ^= 0xff
		return a
	}
	misplace := func(a []byte, idx uint64, slot int) []byte {
		e := entry(idx, "astray")
		e.Encode(a[slot*g.SlotSize : (slot+1)*g.SlotSize])
		return a
	}
	full := []Entry{entry(9, "i"), entry(10, "j"), entry(11, "k"), entry(12, "l"), entry(13, "m"), entry(14, "n"), entry(15, "o"), entry(16, "p")}
	cases := map[string][][]byte{
		"agreeing":            {area(full...), area(full...), area(full...)},
		"one nil":             {nil, area(full...), area(full...)},
		"all nil":             {nil, nil, nil},
		"empty":               {area(), area(), area()},
		"minority tail":       {area(entry(1, "a"), entry(2, "b"), entry(3, "unacked")), area(entry(1, "a"), entry(2, "b")), area(entry(1, "a"), entry(2, "b"))},
		"divergent same idx":  {area(entry(5, "first")), area(entry(5, "second")), area(entry(5, "second"))},
		"divergent, nil lead": {nil, area(entry(5, "second")), area(entry(5, "third"))},
		"stale lap":           {area(entry(1, "old"), entry(2, "b")), area(entry(9, "new"), entry(2, "b")), area(entry(9, "new"), entry(10, "j"))},
		"behind a whole lap":  {area(full...), area(entry(1, "a"), entry(2, "b"), entry(3, "c")), nil},
		"torn":                {tear(area(full...), 12), area(full...), tear(area(full...), 13)},
		"torn everywhere":     {tear(area(full...), 12), tear(area(full...), 12), tear(area(full...), 12)},
		"wrong slot":          {misplace(area(entry(1, "a")), 21, 3), area(entry(1, "a")), misplace(area(), 6, 0)},
	}
	check := func(name string, areas [][]byte) {
		t.Helper()
		want, got := reconcileByScan(g, areas), Reconcile(g, areas)
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, the scan reference gives %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].Index != want[i].Index || len(got[i].Writes) != len(want[i].Writes) {
				t.Fatalf("%s: entry %d is %+v, the scan reference gives %+v", name, i, got[i], want[i])
			}
			for k, w := range want[i].Writes {
				if g := got[i].Writes[k]; g.Addr != w.Addr || !bytes.Equal(g.Data, w.Data) {
					t.Fatalf("%s: entry %d write %d is %+v, the scan reference gives %+v", name, got[i].Index, k, g, w)
				}
			}
		}
	}
	for name, areas := range cases {
		check(name, areas)
	}

	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 300; round++ {
		areas := make([][]byte, 3)
		head := uint64(1 + rng.Intn(3*g.Slots))
		for n := range areas {
			if rng.Intn(6) == 0 {
				continue // unreachable node
			}
			a := area()
			behind := uint64(rng.Intn(g.Slots + 2))
			for idx := uint64(1); idx+behind <= head; idx++ {
				switch rng.Intn(12) {
				case 0: // this node missed the write
				case 1:
					writeEntryToArea(t, g, a, entry(idx, fmt.Sprintf("fork%d", n)))
				default:
					writeEntryToArea(t, g, a, entry(idx, "same"))
				}
			}
			if rng.Intn(3) == 0 {
				tear(a, uint64(rng.Intn(g.Slots)))
			}
			if rng.Intn(5) == 0 {
				misplace(a, uint64(1+rng.Intn(int(head))), rng.Intn(g.Slots))
			}
			areas[n] = a
		}
		check(fmt.Sprintf("random round %d", round), areas)
	}
}
