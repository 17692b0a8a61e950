package ftab

import (
	"testing"

	"repro/internal/block"
	"repro/internal/capability"
	"repro/internal/disk"
	"repro/internal/file"
	"repro/internal/occ"
	"repro/internal/page"
	"repro/internal/version"
)

// TestCASOntoRecreatedChainTakesItsCapability: a replica still holding
// a removed file's entry receives a commit's CAS on the chain of the
// file re-created under the same object number, ahead of the delete
// and the create (they travel on the re-creating replica's stream, the
// CAS on the committing one's). The chase lands on the new chain, and
// the entry takes the owner capability of the page it ends on.
func TestCASOntoRecreatedChainTakesItsCapability(t *testing.T) {
	d, err := disk.New(disk.Geometry{Blocks: 1 << 10, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	st := version.NewStore(block.NewServer(d), 1)
	const obj = 7
	first := capability.NewFactory(capability.NewPort().Public()).Mint(obj)
	second := capability.NewFactory(capability.NewPort().Public()).Mint(obj)

	old, err := version.CreateFile(st, first, capability.Nil, []byte("first life"))
	if err != nil {
		t.Fatal(err)
	}
	vp, err := st.ReadPage(old.Root)
	if err != nil {
		t.Fatal(err)
	}
	vp.Deleted = true // the Remove's durable tombstone
	if err := st.WritePage(old.Root, vp); err != nil {
		t.Fatal(err)
	}
	born, err := version.CreateFile(st, second, capability.Nil, []byte("second life"))
	if err != nil {
		t.Fatal(err)
	}
	next, err := version.CreateVersion(st, born.Root, capability.Nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.WritePage(page.RootPath, []byte("second life, v2")); err != nil {
		t.Fatal(err)
	}
	if err := occ.NewCommitter(st).Commit(next, capability.NilPort); err != nil {
		t.Fatal(err)
	}

	r := NewReplicated(Options{Local: file.NewTable(), Store: st})
	r.local.Put(obj, file.Entry{Cap: first, Entry: old.Root})
	r.applyCAS(obj, born.Root, next.Root)
	if e, err := r.Get(obj); err != nil || e.Cap != second || e.Entry != next.Root {
		t.Fatalf("entry after the CAS: %+v, %v; want the re-created capability %v at root %d", e, err, second, next.Root)
	}
}
