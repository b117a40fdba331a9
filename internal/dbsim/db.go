// Package dbsim simulates the *first tier* of the paper's architecture: a
// database client with its own buffer caches, sitting above the storage
// server. The paper instrumented DB2 and MySQL to emit hinted I/O traces
// (§6); we do not have those systems or their traces, so dbsim reproduces
// the mechanism that makes such traces what they are — a buffer pool that
// absorbs temporal locality, an asynchronous page cleaner that issues
// replacement writes at client-eviction time, synchronous writes when a
// dirty victim must leave immediately, periodic checkpoints that issue
// recovery writes while pages stay client-cached, and prefetching scans —
// and attaches the paper's exact hint vocabularies to every emitted
// request.
//
// Each pool keeps its dirty frames on a second list in LRU order, so the
// page cleaner costs per dirty page it writes, not per frame it would pass
// on the way to the cold end. Nothing on the request path hashes: a
// Database numbers pages densely from 0, so a client finds a page's frame
// through one slice indexed by page number, shared by its pools, and its
// interned hint IDs and per-object row counts are slices too.
package dbsim

import "fmt"

// Object is a named database object (table, index, temp area, …) occupying
// a set of pages in the storage server's address space.
type Object struct {
	// ID is a dense object identifier (the DB2 "object ID" hint).
	ID int
	// Name is a human-readable name, e.g. "STOCK" or "LINEITEM_IDX".
	Name string
	// TypeName is the object type (the DB2 "object type ID" hint), e.g.
	// "table", "index", "temp".
	TypeName string
	// Pool is the buffer pool this object is assigned to (the DB2
	// "pool ID" hint).
	Pool int
	// Priority is the object's buffer priority in the client cache (the
	// DB2 "buffer priority" hint).
	Priority int
	// FileID groups a table with its indexes (the MySQL "file ID" hint).
	FileID int

	// pages holds the object's server page numbers in logical page order.
	pages []uint64
}

// Pages returns the object's current size in pages.
func (o *Object) Pages() int { return len(o.pages) }

// Page returns the server page number of the object's logical page idx.
func (o *Object) Page(idx int) uint64 {
	if idx < 0 || idx >= len(o.pages) {
		panic(fmt.Sprintf("dbsim: object %s: page index %d out of range [0,%d)", o.Name, idx, len(o.pages)))
	}
	return o.pages[idx]
}

// Database is the collection of objects and the server page allocator.
type Database struct {
	// PageSize is the block size in bytes (informational; DB2 traces used
	// 4KB pages, MySQL 16KB).
	PageSize int

	objects  []*Object
	nextPage uint64
}

// NewDatabase returns an empty database.
func NewDatabase(pageSize int) *Database {
	return &Database{PageSize: pageSize}
}

// NewObject allocates a new object with the given initial size in pages.
// Initial allocations are contiguous, so scans touch sequential server
// pages; later growth interleaves with other growing objects, as in a real
// system.
func (db *Database) NewObject(name, typeName string, pool, priority, fileID, pages int) *Object {
	o := &Object{
		ID:       len(db.objects),
		Name:     name,
		TypeName: typeName,
		Pool:     pool,
		Priority: priority,
		FileID:   fileID,
	}
	db.objects = append(db.objects, o)
	db.Extend(o, pages)
	return o
}

// Extend grows an object by n pages allocated from the global page space.
func (db *Database) Extend(o *Object, n int) {
	for i := 0; i < n; i++ {
		o.pages = append(o.pages, db.nextPage)
		db.nextPage++
	}
}

// Objects returns all objects in creation order.
func (db *Database) Objects() []*Object { return db.objects }

// Object returns the object with the given name, or nil.
func (db *Database) Object(name string) *Object {
	for _, o := range db.objects {
		if o.Name == name {
			return o
		}
	}
	return nil
}

// TotalPages returns the number of allocated pages across all objects.
func (db *Database) TotalPages() int { return int(db.nextPage) }
