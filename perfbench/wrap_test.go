package main

import (
	"testing"

	"plfs/internal/extent"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// Test doubles advertising each optional capability; their methods are
// never called, only asserted on.
type (
	bareBackend struct{ plfs.Backend }
	concurrent  struct{}
	condPut     struct{}
	bulk        struct{}

	bareFile struct{ plfs.File }
	vectored struct{}
	batch    struct{}
	locker   struct{}
)

func (concurrent) ConcurrentIO() bool                       { return true }
func (condPut) PutIfAbsent(string, []byte) error            { return nil }
func (condPut) PutReplace(string, []byte) error             { return nil }
func (bulk) CreateBulk([]plfs.BulkOp) []error               { return nil }
func (vectored) WritevAt([]extent.Ext, payload.List) error  { return nil }
func (vectored) ReadvAt([]extent.Ext) (payload.List, error) { return nil, nil }
func (batch) Appendv(payload.List) (int64, error)           { return 0, nil }
func (locker) LockRange(int64, int64) error                 { return nil }
func (locker) UnlockRange(int64, int64) error               { return nil }

func backendCaps(b plfs.Backend) [3]bool {
	_, c := b.(plfs.ConcurrentIO)
	_, p := b.(plfs.CondPutter)
	_, k := b.(plfs.BulkCreator)
	return [3]bool{c, p, k}
}

func fileCaps(f plfs.File) [3]bool {
	_, v := f.(plfs.VectoredIO)
	_, a := f.(plfs.BatchAppender)
	_, l := f.(plfs.RangeLocker)
	return [3]bool{v, a, l}
}

// TestBackendWrapperForwardsCapabilities checks every combination of
// the optional Backend capabilities: the wrapper advertises exactly the
// ones the wrapped backend has.
func TestBackendWrapperForwardsCapabilities(t *testing.T) {
	b := bareBackend{}
	cases := []plfs.Backend{
		b,
		struct {
			bareBackend
			concurrent
		}{},
		struct {
			bareBackend
			condPut
		}{},
		struct {
			bareBackend
			bulk
		}{},
		struct {
			bareBackend
			concurrent
			condPut
		}{},
		struct {
			bareBackend
			concurrent
			bulk
		}{},
		struct {
			bareBackend
			condPut
			bulk
		}{},
		struct {
			bareBackend
			concurrent
			condPut
			bulk
		}{},
	}
	tr := &tracer{}
	for _, inner := range cases {
		want := backendCaps(inner)
		w := tr.wrapBackend(inner, nil)
		if got := backendCaps(w); got != want {
			t.Errorf("%T: wrapper advertises %v, inner %v", inner, got, want)
		}
		if c, ok := w.(plfs.ConcurrentIO); ok && !c.ConcurrentIO() {
			t.Errorf("%T: ConcurrentIO not forwarded", inner)
		}
	}
}

// TestFileWrapperForwardsCapabilities does the same for File handles.
func TestFileWrapperForwardsCapabilities(t *testing.T) {
	cases := []plfs.File{
		bareFile{},
		struct {
			bareFile
			vectored
		}{},
		struct {
			bareFile
			batch
		}{},
		struct {
			bareFile
			locker
		}{},
		struct {
			bareFile
			vectored
			batch
		}{},
		struct {
			bareFile
			vectored
			locker
		}{},
		struct {
			bareFile
			batch
			locker
		}{},
		struct {
			bareFile
			vectored
			batch
			locker
		}{},
	}
	w := &tracedBackend{t: &tracer{}}
	for _, inner := range cases {
		f, err := w.file(inner, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fileCaps(f), fileCaps(inner); got != want {
			t.Errorf("%T: wrapper advertises %v, inner %v", inner, got, want)
		}
	}
}
