package msq

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// TestChecksumFailureMidBatch damages one page of a stored dataset and runs
// a four-query batch over it. The batch has read, evaluated and released
// pages — into a free list the bad record is then decoded out of — when the
// read fails, so this pins what a failure mid-batch leaves behind: the call
// errors with ErrCorruptPage and returns no answer list at all (Definition
// 4 promises the first query's answers complete; a list cut short by an
// error must not pass for one), the failure is counted once, the buffer
// holds only whole pages, and once the page is restored a fresh session on
// the same processor answers exactly as the in-memory run does.
func TestChecksumFailureMidBatch(t *testing.T) {
	const dim = 4
	items := testDB(17, 300, dim)
	queries := diffBatch(dim, 5)[:4]
	m := vec.Euclidean{}
	for i, mk := range fileDiskMakers(false)[:2] { // scan, xtree
		t.Run(mk.name, func(t *testing.T) {
			want := runDifferential(t, diffMakers()[i], m, AvoidAuto, 1, items, dim, queries)

			eng := mk.make(t, items, dim, m)
			proc, err := New(eng, m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			pager := eng.Pager()
			fd := store.UnwrapSource(pager.Disk()).(*store.FileDisk)
			path := filepath.Join(fd.Dir(), fd.Manifest().PagesFile)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			e := fd.Manifest().Pages[eng.NumPages()/2]
			at := e.Offset + e.Length/2
			flip := func() { // damages the page, or restores it
				t.Helper()
				raw[at] ^= 0xFF
				if err := os.WriteFile(path, raw, 0o666); err != nil {
					t.Fatal(err)
				}
			}

			flip()
			lists, _, err := proc.NewSession().MultiQueryAll(queries)
			if !errors.Is(err, store.ErrCorruptPage) {
				t.Fatalf("batch over a damaged page: err = %v, want ErrCorruptPage", err)
			}
			if lists != nil {
				t.Fatal("a failed batch returned answer lists")
			}
			st := fd.Storage()
			if st.ChecksumFailures != 1 {
				t.Errorf("ChecksumFailures = %d, want 1", st.ChecksumFailures)
			}
			if st.PagesReused == 0 {
				t.Error("no page was reused before the failure: the bad record met no recycled page")
			}
			for pid := 0; pid < eng.NumPages(); pid++ {
				pg, ok := pager.Buffer().Get(store.PageID(pid))
				if !ok {
					continue
				}
				if pg.ID != store.PageID(pid) || len(pg.Items) != eng.PageLen(store.PageID(pid)) {
					t.Errorf("buffer slot %d holds page %d with %d items", pid, pg.ID, len(pg.Items))
				}
				pager.Release(pg)
			}

			flip()
			pager.ResetStats()
			lists, stats, err := proc.NewSession().MultiQueryAll(queries)
			if err != nil {
				t.Fatal(err)
			}
			got := diffRun{stats: stats, io: pager.Disk().Stats()}
			for _, l := range lists {
				got.answers = append(got.answers, l.Answers())
			}
			got.hits, got.misses, _ = pager.Buffer().HitRate()
			requireSameRun(t, "after the page is restored", want, got)
		})
	}
}
