package storage

import (
	"errors"
	"testing"
)

// newPoolFile returns a small pool with one registered MemBacking that
// already holds npages sealed empty pages.
func newPoolFile(t *testing.T, frames int, npages int) (*Pool, FileID, *MemBacking) {
	t.Helper()
	pool := NewPool(frames)
	b := NewMemBacking()
	id := pool.Register(b)
	var buf [PageSize]byte
	for i := 0; i < npages; i++ {
		if _, err := b.Allocate(); err != nil {
			t.Fatal(err)
		}
		initPage(buf[:])
		sealPage(buf[:])
		if err := b.WritePage(uint32(i), buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	return pool, id, b
}

func TestPoolHitMiss(t *testing.T) {
	pool, id, _ := newPoolFile(t, 8, 4)
	f, err := pool.Fetch(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f, false)
	f, err = pool.Fetch(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f, false)
	s := pool.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", s.Hits, s.Misses)
	}
}

func TestPoolEvictionWritesBackDirty(t *testing.T) {
	// Pool smaller than the file: touching every page forces eviction.
	pool, id, backing := newPoolFile(t, 8, 32)
	for pg := uint32(0); pg < 32; pg++ {
		f, err := pool.Fetch(id, pg)
		if err != nil {
			t.Fatalf("fetch %d: %v", pg, err)
		}
		p := page{f.Data()}
		if _, err := p.insert([]byte{byte(pg), byte(pg), byte(pg)}); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(f, true)
	}
	s := pool.Stats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions with 8 frames over 32 pages")
	}
	if s.Flushes == 0 {
		t.Fatalf("dirty victims were not flushed")
	}
	// Every page's mutation survived its round trip through the backing.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var buf [PageSize]byte
	for pg := uint32(0); pg < 32; pg++ {
		if err := backing.ReadPage(pg, buf[:]); err != nil {
			t.Fatal(err)
		}
		if err := verifyPage(buf[:]); err != nil {
			t.Fatalf("page %d failed verify after write-back: %v", pg, err)
		}
		data, err := page{buf[:]}.read(0)
		if err != nil || data[0] != byte(pg) {
			t.Fatalf("page %d lost its tuple: %v %v", pg, data, err)
		}
	}
}

func TestPoolPinnedPagesNeverEvicted(t *testing.T) {
	pool, id, _ := newPoolFile(t, 8, 64)
	// Pin page 0, then stream the rest through the remaining frames.
	pinned, err := pool.Fetch(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := page{pinned.Data()}
	if _, err := p.insert([]byte("pinned sentinel")); err != nil {
		t.Fatal(err)
	}
	for pg := uint32(1); pg < 64; pg++ {
		f, err := pool.Fetch(id, pg)
		if err != nil {
			t.Fatalf("fetch %d: %v", pg, err)
		}
		pool.Unpin(f, false)
	}
	// The pinned frame must still hold page 0's bytes.
	data, err := page{pinned.Data()}.read(0)
	if err != nil || string(data) != "pinned sentinel" {
		t.Fatalf("pinned frame was recycled: %v %q", err, data)
	}
	pool.Unpin(pinned, true)
}

func TestPoolAllPinnedErrPoolFull(t *testing.T) {
	pool, id, _ := newPoolFile(t, 8, 16)
	var held []*Frame
	for pg := uint32(0); pg < 8; pg++ {
		f, err := pool.Fetch(id, pg)
		if err != nil {
			t.Fatalf("fetch %d: %v", pg, err)
		}
		held = append(held, f)
	}
	if _, err := pool.Fetch(id, 8); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("fetch with all frames pinned: err = %v, want ErrPoolFull", err)
	}
	if _, _, err := pool.Alloc(id); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("alloc with all frames pinned: err = %v, want ErrPoolFull", err)
	}
	// Releasing one pin unblocks the fetch.
	pool.Unpin(held[0], false)
	f, err := pool.Fetch(id, 8)
	if err != nil {
		t.Fatalf("fetch after unpin: %v", err)
	}
	pool.Unpin(f, false)
	for _, f := range held[1:] {
		pool.Unpin(f, false)
	}
}

func TestPoolCorruptPageRejectedOnFetch(t *testing.T) {
	pool, id, backing := newPoolFile(t, 8, 2)
	var buf [PageSize]byte
	if err := backing.ReadPage(1, buf[:]); err != nil {
		t.Fatal(err)
	}
	buf[100] ^= 0xFF // payload damage without resealing
	if err := backing.WritePage(1, buf[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fetch(id, 1); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("fetch of torn page: err = %v, want ErrBadChecksum", err)
	}
	// The failed fill released its frame; the pool still works.
	f, err := pool.Fetch(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f, false)
}

// bufferedFrames counts the frames that have been given a page buffer.
func bufferedFrames(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.frames {
		if p.frames[i].buf != nil {
			n++
		}
	}
	return n
}

func TestPoolFreshHoldsNoBuffers(t *testing.T) {
	pool := NewPool(DefaultPoolPages)
	if n := bufferedFrames(pool); n != 0 {
		t.Fatalf("fresh pool holds %d page buffers, want 0", n)
	}
	if s := pool.Stats(); s.Pages != DefaultPoolPages || s.Resident != 0 {
		t.Fatalf("stats = %+v, want Pages=%d Resident=0", s, DefaultPoolPages)
	}
}

func TestPoolBuffersFollowResidentPagesUpToCap(t *testing.T) {
	pool, id, _ := newPoolFile(t, 8, 16)
	var held []*Frame
	for pg := uint32(0); pg < 8; pg++ {
		f, err := pool.Fetch(id, pg)
		if err != nil {
			t.Fatalf("fetch %d: %v", pg, err)
		}
		held = append(held, f)
		if n, r := bufferedFrames(pool), pool.Stats().Resident; n != int(pg)+1 || r != n {
			t.Fatalf("after %d fetches: %d buffers, %d resident", pg+1, n, r)
		}
	}
	if _, err := pool.Fetch(id, 8); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("fetch with all frames pinned: err = %v, want ErrPoolFull", err)
	}
	for _, f := range held {
		pool.Unpin(f, false)
	}
	// Streaming the rest of the file evicts instead of growing past the cap.
	for pg := uint32(8); pg < 16; pg++ {
		f, err := pool.Fetch(id, pg)
		if err != nil {
			t.Fatalf("fetch %d: %v", pg, err)
		}
		pool.Unpin(f, false)
	}
	if n := bufferedFrames(pool); n != 8 {
		t.Fatalf("%d buffers after eviction, want the cap of 8", n)
	}
	if s := pool.Stats(); s.Evictions != 8 || s.Pages != 8 {
		t.Fatalf("stats = %+v, want 8 evictions of 8 pages", s)
	}
}

func TestPoolDeregisteredFrameReusesBuffer(t *testing.T) {
	pool := NewPool(64)
	a := pool.Register(NewMemBacking())
	_, fa, err := pool.Alloc(a)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(fa, true)
	buf := &fa.Data()[0]
	pool.Deregister(a)
	if s := pool.Stats(); s.Resident != 0 {
		t.Fatalf("resident = %d after deregister, want 0", s.Resident)
	}
	b := pool.Register(NewMemBacking())
	_, fb, err := pool.Alloc(b)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Unpin(fb, false)
	if fb != fa || &fb.Data()[0] != buf {
		t.Fatalf("alloc after deregister took a new frame instead of the freed one")
	}
	if n := bufferedFrames(pool); n != 1 {
		t.Fatalf("%d buffers, want 1", n)
	}
}

func TestMemBackingUnwrittenPageReadsZero(t *testing.T) {
	b := NewMemBacking()
	pg, err := b.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = 0xAB
	}
	if err := b.ReadPage(pg, buf); err != nil {
		t.Fatal(err)
	}
	for i, c := range buf {
		if c != 0 {
			t.Fatalf("byte %d of an unwritten page = %#x, want 0", i, c)
		}
	}
}
