package erasure

import (
	"errors"
	"fmt"
)

// Errors returned by the codec.
var (
	ErrInvalidParams   = errors.New("erasure: invalid code parameters")
	ErrShortBlock      = errors.New("erasure: block length not divisible by data chunk count")
	ErrNotEnoughChunks = errors.New("erasure: fewer than k chunks available")
	ErrChunkSize       = errors.New("erasure: chunk size mismatch")
)

// Code is a systematic Cauchy Reed–Solomon code with k data chunks and m
// parity chunks. Chunks 0..k-1 are verbatim slices of the input block
// (systematic layout), so reads that reach only data chunks skip decoding —
// the property Sift exploits by prioritising non-parity memory nodes.
type Code struct {
	k, m   int
	parity [][]byte          // m×k row-normalised Cauchy coefficient matrix
	tabs   [][]*[256]byte    // composed product table per matrix cell
	t16k2  *[65536]uint16    // double-byte table for the k=2, m=1 shape
	t16k3  [2]*[65536]uint32 // double-byte, double-row tables (k=3, m=2)
}

// New constructs a code with k data and m parity chunks. k ≥ 1, m ≥ 0, and
// k+m ≤ 256 (field size limit).
func New(k, m int) (*Code, error) {
	if k < 1 || m < 0 || k+m > 256 {
		return nil, fmt.Errorf("%w: k=%d m=%d", ErrInvalidParams, k, m)
	}
	c := &Code{k: k, m: m}
	// Cauchy matrix: rows indexed by x_i = k+i, columns by y_j = j, entry
	// 1/(x_i ^ y_j). Distinctness of all x and y values in GF(256)
	// guarantees every square submatrix is invertible, which is what makes
	// any-k-of-n reconstruction possible. Each row is then scaled by
	// x_i ^ y_0 so its first coefficient is 1: row scaling by a non-zero
	// constant maps every square submatrix to an invertible one iff the
	// original was, and lets the encoders fold source chunk 0 into every
	// parity row with a plain xor.
	c.parity = make([][]byte, m)
	c.tabs = make([][]*[256]byte, m)
	for i := 0; i < m; i++ {
		row := make([]byte, k)
		trow := make([]*[256]byte, k)
		for j := 0; j < k; j++ {
			row[j] = gfMul(gfInv(byte(k+i)^byte(j)), byte(k+i))
			trow[j] = mulTables[row[j]]
		}
		c.parity[i] = row
		c.tabs[i] = trow
	}
	switch {
	case k == 2 && m == 1:
		c.t16k2 = newTab16(c.parity[0][1])
	case k == 3 && m == 2:
		c.t16k3[0] = newTab16x2(c.parity[0][1], c.parity[1][1])
		c.t16k3[1] = newTab16x2(c.parity[0][2], c.parity[1][2])
	}
	return c, nil
}

// K returns the number of data chunks.
func (c *Code) K() int { return c.k }

// M returns the number of parity chunks.
func (c *Code) M() int { return c.m }

// ChunkSize returns the per-chunk size for a block of blockLen bytes.
// blockLen must be divisible by K.
func (c *Code) ChunkSize(blockLen int) (int, error) {
	if blockLen%c.k != 0 {
		return 0, fmt.Errorf("%w: block %d, k %d", ErrShortBlock, blockLen, c.k)
	}
	return blockLen / c.k, nil
}

// encodeRange computes parity bytes [lo, hi) of every parity chunk from the
// same range of the data chunks in one fused pass (specialised for Sift's
// common shapes).
func (c *Code) encodeRange(data, parity [][]byte, lo, hi int) {
	switch {
	case c.k == 2 && c.m == 1:
		encodeK2M1(parity[0][lo:hi], data[0][lo:hi], data[1][lo:hi], c.t16k2, c.tabs[0][1])
	case c.k == 3 && c.m == 2:
		encodeK3M2(parity[0][lo:hi], parity[1][lo:hi],
			data[0][lo:hi], data[1][lo:hi], data[2][lo:hi],
			c.t16k3[0], c.t16k3[1], c.tabs)
	default:
		for i := 0; i < c.m; i++ {
			p := parity[i][lo:hi]
			mulSlice(p, data[0][lo:hi], c.parity[i][0])
			for j := 1; j < c.k; j++ {
				mulAddSlice(p, data[j][lo:hi], c.parity[i][j])
			}
		}
	}
}

// encodeChunks computes every parity chunk from the data chunks, sharding
// large chunks across the kernel pool. The common small-chunk path stays
// closure-free so it does not allocate.
func (c *Code) encodeChunks(data, parity [][]byte, cs int) {
	if c.m == 0 {
		return
	}
	if cs < shardMinBytes || poolWorkers() < 2 {
		c.encodeRange(data, parity, 0, cs)
		return
	}
	shardRanges(cs, func(lo, hi int) { c.encodeRange(data, parity, lo, hi) })
}

// Encode splits block into k data chunks and computes m parity chunks,
// returning all k+m chunks. The data chunks alias block; parity chunks are
// freshly allocated.
func (c *Code) Encode(block []byte) ([][]byte, error) {
	cs, err := c.ChunkSize(len(block))
	if err != nil {
		return nil, err
	}
	parity := make([][]byte, c.m)
	if c.m > 0 {
		backing := make([]byte, c.m*cs)
		for i := range parity {
			parity[i] = backing[i*cs : (i+1)*cs]
		}
	}
	return c.EncodeInto(block, parity)
}

// EncodeInto is like Encode but writes parity into the caller-provided
// buffers parity[0..m-1], each of chunk size, avoiding the parity allocation.
// Returned data chunks alias block.
func (c *Code) EncodeInto(block []byte, parity [][]byte) ([][]byte, error) {
	if len(parity) != c.m {
		return nil, fmt.Errorf("%w: %d parity buffers, want %d", ErrChunkSize, len(parity), c.m)
	}
	chunks := make([][]byte, c.k+c.m)
	copy(chunks[c.k:], parity)
	if err := c.EncodeTo(block, chunks); err != nil {
		return nil, err
	}
	return chunks, nil
}

// EncodeTo is the allocation-free encode entry point used by repmem's hot
// paths: chunks must have length k+m with pre-allocated chunk-size parity
// buffers in chunks[k..k+m-1]. Entries 0..k-1 are overwritten with aliases
// of block's data ranges and the parity buffers are filled in place.
func (c *Code) EncodeTo(block []byte, chunks [][]byte) error {
	cs, err := c.ChunkSize(len(block))
	if err != nil {
		return err
	}
	if len(chunks) != c.k+c.m {
		return fmt.Errorf("%w: %d chunk slots, want %d", ErrChunkSize, len(chunks), c.k+c.m)
	}
	for j := 0; j < c.k; j++ {
		chunks[j] = block[j*cs : (j+1)*cs : (j+1)*cs]
	}
	for i := 0; i < c.m; i++ {
		if len(chunks[c.k+i]) != cs {
			return fmt.Errorf("%w: parity buffer %d has %d bytes, want %d", ErrChunkSize, i, len(chunks[c.k+i]), cs)
		}
	}
	c.encodeChunks(chunks[:c.k], chunks[c.k:], cs)
	return nil
}

// checkChunks validates a k+m chunk set and returns the shared chunk size.
// It allocates nothing, keeping the steady-state decode path clean; callers
// that need the present-index list build it with presentChunks.
func (c *Code) checkChunks(chunks [][]byte) (int, error) {
	if len(chunks) != c.k+c.m {
		return 0, fmt.Errorf("%w: %d chunks, want %d", ErrChunkSize, len(chunks), c.k+c.m)
	}
	cs := -1
	got := 0
	for i, ch := range chunks {
		if ch == nil {
			continue
		}
		if cs == -1 {
			cs = len(ch)
		} else if len(ch) != cs {
			return 0, fmt.Errorf("%w: chunk %d has %d bytes, want %d", ErrChunkSize, i, len(ch), cs)
		}
		got++
	}
	if got < c.k {
		return 0, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughChunks, got, c.k)
	}
	return cs, nil
}

// presentChunks returns the first k present chunk indexes (data chunks
// first, by scan order).
func (c *Code) presentChunks(chunks [][]byte) []int {
	use := make([]int, 0, c.k)
	for i, ch := range chunks {
		if ch != nil {
			use = append(use, i)
			if len(use) == c.k {
				break
			}
		}
	}
	return use
}

// decodeMatrix builds and inverts the k×k generator submatrix selecting
// the first k present chunks (data chunks preferred — cheaper rows).
func (c *Code) decodeMatrix(use []int) ([][]byte, error) {
	mat := make([][]byte, c.k)
	for r, idx := range use {
		row := make([]byte, c.k)
		if idx < c.k {
			row[idx] = 1 // systematic row
		} else {
			copy(row, c.parity[idx-c.k])
		}
		mat[r] = row
	}
	if !invertMatrix(mat) {
		return nil, errors.New("erasure: generator submatrix singular (corrupt code state)")
	}
	return mat, nil
}

// Decode reconstructs the original block from any k available chunks.
// chunks has length k+m; missing chunks are nil. All present chunks must
// share one size. The reconstructed block is newly allocated.
func (c *Code) Decode(chunks [][]byte) ([]byte, error) {
	cs, err := c.checkChunks(chunks)
	if err != nil {
		return nil, err
	}
	block := make([]byte, c.k*cs)
	if err := c.DecodeInto(block, chunks); err != nil {
		return nil, err
	}
	return block, nil
}

// DecodeInto is like Decode but writes the reconstructed block into the
// caller-provided buffer of exactly k·chunksize bytes, so the steady-state
// read path (all data chunks live: a straight copy) allocates nothing.
func (c *Code) DecodeInto(block []byte, chunks [][]byte) error {
	cs, err := c.checkChunks(chunks)
	if err != nil {
		return err
	}
	if len(block) != c.k*cs {
		return fmt.Errorf("%w: block buffer %d bytes, want %d", ErrChunkSize, len(block), c.k*cs)
	}

	// Fast path: all data chunks present (systematic layout).
	allData := true
	for j := 0; j < c.k; j++ {
		if chunks[j] == nil {
			allData = false
			break
		}
	}
	if allData {
		for j := 0; j < c.k; j++ {
			copy(block[j*cs:], chunks[j])
		}
		return nil
	}

	// General path: invert the generator submatrix of the first k present
	// chunks, then matrix-multiply — but only for the missing data rows.
	use := c.presentChunks(chunks)
	mat, err := c.decodeMatrix(use)
	if err != nil {
		return err
	}
	shardRanges(cs, func(lo, hi int) {
		for j := 0; j < c.k; j++ {
			out := block[j*cs+lo : j*cs+hi]
			if chunks[j] != nil {
				copy(out, chunks[j][lo:hi])
				continue
			}
			mulSlice(out, chunks[use[0]][lo:hi], mat[j][0])
			for r := 1; r < c.k; r++ {
				mulAddSlice(out, chunks[use[r]][lo:hi], mat[j][r])
			}
		}
	})
	return nil
}

// Reconstruct fills in every nil chunk (data and parity) in place, given at
// least k present chunks. Used by memory-node recovery, which must rebuild
// the exact chunk a rejoining node is responsible for. Only the missing
// chunks are computed and allocated: missing data chunks come from the
// inverted generator submatrix applied to k present chunks, and missing
// parity chunks are re-encoded from the (by then complete) data chunks.
func (c *Code) Reconstruct(chunks [][]byte) error {
	cs, err := c.checkChunks(chunks)
	if err != nil {
		return err
	}
	var missData, missParity []int
	for i, ch := range chunks {
		if ch != nil {
			continue
		}
		if i < c.k {
			missData = append(missData, i)
		} else {
			missParity = append(missParity, i-c.k)
		}
	}
	if len(missData)+len(missParity) == 0 {
		return nil
	}

	var mat [][]byte
	use := c.presentChunks(chunks)
	if len(missData) > 0 {
		if mat, err = c.decodeMatrix(use); err != nil {
			return err
		}
	}
	backing := make([]byte, (len(missData)+len(missParity))*cs)
	for _, j := range missData {
		chunks[j], backing = backing[:cs:cs], backing[cs:]
	}
	for _, i := range missParity {
		chunks[c.k+i], backing = backing[:cs:cs], backing[cs:]
	}

	shardRanges(cs, func(lo, hi int) {
		// Missing data rows first: missing parity in the same sub-range
		// depends only on data bytes [lo, hi), which are complete below.
		for _, j := range missData {
			out := chunks[j][lo:hi]
			mulSlice(out, chunks[use[0]][lo:hi], mat[j][0])
			for r := 1; r < c.k; r++ {
				mulAddSlice(out, chunks[use[r]][lo:hi], mat[j][r])
			}
		}
		for _, i := range missParity {
			p := chunks[c.k+i][lo:hi]
			mulSlice(p, chunks[0][lo:hi], c.parity[i][0])
			for j := 1; j < c.k; j++ {
				mulAddSlice(p, chunks[j][lo:hi], c.parity[i][j])
			}
		}
	})
	return nil
}
