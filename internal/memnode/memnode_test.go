package memnode

import (
	"testing"

	"github.com/repro/sift/internal/rdma"
)

func testLayout() Layout {
	return Layout{DirectSize: 1024, MainSize: 4096}
}

func TestLayoutMath(t *testing.T) {
	l := testLayout()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.DirectBase() != 0 {
		t.Fatalf("DirectBase = %d", l.DirectBase())
	}
	if l.MainBase() != 1024 {
		t.Fatalf("MainBase = %d", l.MainBase())
	}
	if l.ReplSize() != 1024+4096 {
		t.Fatalf("ReplSize = %d", l.ReplSize())
	}
	l.IntegrityBlockSize = 1000 // a short final block still gets an entry
	if l.IntegritySlots() != 5 || l.IntegrityBase() != 1024+4096 || l.IntegrityOffset(2) != 1024+4096+8 {
		t.Fatalf("strip: %d slots at %d, entry 2 at %d", l.IntegritySlots(), l.IntegrityBase(), l.IntegrityOffset(2))
	}
	if l.ReplSize() != 1024+4096+20 {
		t.Fatalf("ReplSize with strip = %d", l.ReplSize())
	}
}

func TestLayoutValidate(t *testing.T) {
	bad := Layout{MainSize: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid layout accepted")
	}
	bad2 := testLayout()
	bad2.MainSize = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero main size accepted")
	}
	bad3 := testLayout()
	bad3.DirectSize = -1
	if err := bad3.Validate(); err == nil {
		t.Fatal("negative direct size accepted")
	}
}

func TestNewRegisteredRegions(t *testing.T) {
	n, err := New("m0", testLayout())
	if err != nil {
		t.Fatal(err)
	}
	admin := n.Region(AdminRegionID)
	if admin == nil || admin.Size() != AdminSize || admin.Exclusive() {
		t.Fatalf("admin region wrong: %+v", admin)
	}
	repl := n.Region(ReplRegionID)
	if repl == nil || repl.Size() != testLayout().ReplSize() || !repl.Exclusive() {
		t.Fatal("replicated region wrong")
	}
}

func TestNewInvalidLayout(t *testing.T) {
	if _, err := New("m0", Layout{}); err == nil {
		t.Fatal("invalid layout accepted")
	}
}

func TestResetClearsReplicatedRegion(t *testing.T) {
	l := testLayout()
	n, err := New("m0", l)
	if err != nil {
		t.Fatal(err)
	}
	repl := n.Region(ReplRegionID)
	epoch := repl.Acquire()
	if err := repl.WriteAt(epoch, 100, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Write something into the admin region too.
	admin := n.Region(AdminRegionID)
	admin.WriteAt(0, 0, []byte{9})

	Reset(n, l)

	snap := repl.Snapshot()
	for i, b := range snap {
		if b != 0 {
			t.Fatalf("replicated byte %d = %d after reset", i, b)
		}
	}
	// Admin region survives (terms must not regress).
	var a [1]byte
	admin.ReadAt(0, 0, a[:])
	if a[0] != 9 {
		t.Fatal("admin region was cleared")
	}
	// The pre-reset epoch holder is fenced, like a rebooted NIC.
	if err := repl.WriteAt(epoch, 0, []byte{1}); err != rdma.ErrFenced {
		t.Fatalf("stale epoch write: %v", err)
	}
}
