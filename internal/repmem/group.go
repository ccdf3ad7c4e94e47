package repmem

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"github.com/repro/sift/internal/erasure"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
)

// A configuration of the memory — who its members are and how the main space
// is laid out over them — is one group. The Memory holds the current group
// behind one pointer: every operation loads it once and works in that group
// throughout, and Reconfigure (reconfig.go) replaces it whole under the write
// gate. What outlives a configuration — the range locks, the gate, the dirty
// trackers, the exclusion clock, the stats — stays on the Memory.

// member is one memory node of a group: its name, connection and health
// record (health.go). A member that Reconfigure retains is the same object in
// the old group and the new one, so its connection, state and history carry
// over as they are — a dead member stays dead, and is rebuilt.
type member struct {
	name  string
	state atomic.Int32
	conn  atomic.Pointer[connBox]
	// retired is set when a Reconfigure removes the member: its connection is
	// closed, conn never dials it again, and errors on it are no evidence of
	// anything, whoever still holds the superseded group.
	retired atomic.Bool
	// The words above are read by every writer; the health record is written
	// by every completion.
	_      [64]byte
	health nodeHealth
}

// connBox wraps a connection so a nil pointer distinguishes "never dialed".
type connBox struct{ v rdma.Verbs }

// group is one configuration. Every field is fixed once the group is
// published, apart from what the members and the checksum rows hold.
type group struct {
	epoch   uint32 // the config epoch whose descriptor names these members
	members []*member
	code    *erasure.Code // nil when the main space is plainly replicated
	chunk   int           // EC chunk size C; 0 when plain
	layout  memnode.Layout
	integ   *integrity

	workers  []*nodeWorker
	workerWG sync.WaitGroup
	// The pools are separate objects (see bufPool), not fields.
	ecPool    *sync.Pool // *ecScratch, EC apply/reconstruct scratch
	chunkPool *sync.Pool // *[]byte of chunk size, verified-read buffers
}

// newGroup builds a group over members in cfg's geometry (cfg.MemoryNodes is
// not read; cfg.ECData and cfg.ECParity must match code). The caller sets
// integ and starts the workers.
func newGroup(cfg Config, epoch uint32, members []*member, code *erasure.Code) *group {
	g := &group{epoch: epoch, members: members, code: code, layout: cfg.Layout(), ecPool: new(sync.Pool)}
	if code != nil {
		g.chunk = cfg.ECBlockSize / code.K()
		g.chunkPool = bufPool(g.chunk)
	}
	return g
}

// newMember returns a member named name, live, with a fresh health record
// whose backoff jitter is seeded with seed. The generator is a PCG: every
// takeover builds its members, and seeding math/rand's default source
// costs tens of microseconds each.
func newMember(name string, seed int64) *member {
	mb := &member{name: name}
	mb.health.rng = rand.New(rand.NewPCG(uint64(seed), 0))
	return mb
}

// majority returns the commit quorum size (⌊n/2⌋+1 over full membership).
func (g *group) majority() int { return len(g.members)/2 + 1 }

// nodesInState returns the indexes of the members in state s. It inlines,
// and its slice has a constant capacity, so where the result does not
// escape (a read's replica choice) it lives on the caller's stack.
func (g *group) nodesInState(s int32) []int {
	out := make([]int, 0, maxMembers)
	for i, mb := range g.members {
		if mb.state.Load() == s {
			out = append(out, i)
		}
	}
	return out
}

// index returns name's group index, or -1.
func (g *group) index(name string) int {
	for i, mb := range g.members {
		if mb.name == name {
			return i
		}
	}
	return -1
}

// names returns the member names in group-index order.
func (g *group) names() []string {
	out := make([]string, len(g.members))
	for i, mb := range g.members {
		out[i] = mb.name
	}
	return out
}

// liveBitmap returns the membership bitmap of the live members.
func (g *group) liveBitmap() uint32 {
	var bitmap uint32
	for i, mb := range g.members {
		if mb.state.Load() == nodeLive {
			bitmap |= 1 << uint(i)
		}
	}
	return bitmap
}

// ecGeometry returns the group's erasure geometry (0, 0 when plain).
func (g *group) ecGeometry() (k, m int) {
	if g.code == nil {
		return 0, 0
	}
	return g.code.K(), g.code.M()
}
