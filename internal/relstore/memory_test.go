package relstore

import (
	"runtime"
	"testing"

	"msql/internal/sqlval"
)

// heapAlloc returns the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// An in-memory store's buffer pool allocates page buffers as pages
// become resident, not per configured frame: a small table costs a few
// pages, not the pool's 16 MiB cap.
func TestInMemoryStoreHeapFollowsData(t *testing.T) {
	before := heapAlloc()
	s := NewStore()
	if err := s.CreateDatabase("d"); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	if err := tx.CreateTable("d", "t", []Column{
		{Name: "id", Type: sqlval.KindInt, Key: true},
		{Name: "name", Type: sqlval.KindString, Width: 20},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tx.Insert("d", "t", Row{sqlval.Int(int64(i)), sqlval.Str("row")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := heapAlloc()
	runtime.KeepAlive(s)
	const limit = 2 << 20
	if after > before && after-before >= limit {
		t.Fatalf("store with one 100-row table grew the heap by %d KiB, want < %d KiB",
			(after-before)>>10, limit>>10)
	}
}
