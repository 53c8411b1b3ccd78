package storage

import (
	"sync"
	"testing"

	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

func testSchema() *schema.Schema {
	return schema.New("t",
		schema.Column{Name: "a", Type: value.TypeInt},
		schema.Column{Name: "b", Type: value.TypeString})
}

// publish puts rows into a table the way a commit does: under the
// catalog's publish lock, at a fresh stamp from its clock, through
// PublishAppend (PublishReplace when replace is set). No snapshot is
// registered, so the stamp is also the low-water mark.
func publish(c *Catalog, t *Table, replace bool, rows ...schema.Row) {
	c.LockPublish()
	defer c.UnlockPublish()
	stamp := c.Stamps().Next(0)
	if replace {
		t.PublishReplace(stamp, rows, stamp)
	} else {
		t.PublishAppend(stamp, rows, stamp)
	}
	c.Stamps().SetVisible(stamp)
}

// liveLen is the table's row count at the catalog's watermark.
func liveLen(c *Catalog, t *Table) int { return t.LenAt(c.Stamps().Visible()) }

func TestTableBasics(t *testing.T) {
	c := NewCatalog()
	tab := NewTable("t", testSchema())
	if tab.Name() != "t" || liveLen(c, tab) != 0 {
		t.Fatal("fresh table state wrong")
	}
	publish(c, tab, false, schema.Row{value.NewInt(1), value.NewString("x")})
	publish(c, tab, false,
		schema.Row{value.NewInt(2), value.NewString("y")},
		schema.Row{value.NewInt(3), value.NewString("z")},
	)
	if liveLen(c, tab) != 3 {
		t.Fatalf("len = %d", liveLen(c, tab))
	}
	snap := tab.Snapshot()
	if len(snap) != 3 || snap[2][0].Int() != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
	// Appends after a snapshot must not disturb it.
	publish(c, tab, false, schema.Row{value.NewInt(4), value.NewString("w")})
	if len(snap) != 3 {
		t.Fatal("snapshot grew")
	}
	publish(c, tab, true)
	if liveLen(c, tab) != 0 {
		t.Fatal("truncate failed")
	}
}

func TestTableConcurrentInsert(t *testing.T) {
	c := NewCatalog()
	tab := NewTable("t", testSchema())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				publish(c, tab, false, schema.Row{value.NewInt(int64(i)), value.Null})
			}
		}()
	}
	wg.Wait()
	if liveLen(c, tab) != 1600 {
		t.Fatalf("len = %d", liveLen(c, tab))
	}
}

func TestSequence(t *testing.T) {
	s := NewSequence("s")
	if s.CurrentVal() != 1 {
		t.Fatalf("initial = %d", s.CurrentVal())
	}
	for want := int64(1); want <= 5; want++ {
		if got := s.NextVal(); got != want {
			t.Fatalf("NextVal = %d, want %d", got, want)
		}
	}
	if s.CurrentVal() != 6 {
		t.Fatalf("current = %d", s.CurrentVal())
	}
}

func TestSequenceConcurrent(t *testing.T) {
	s := NewSequence("s")
	var wg sync.WaitGroup
	seen := make([][]int64, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				seen[w] = append(seen[w], s.NextVal())
			}
		}(w)
	}
	wg.Wait()
	all := make(map[int64]bool)
	for _, vals := range seen {
		for _, v := range vals {
			if all[v] {
				t.Fatalf("duplicate sequence value %d", v)
			}
			all[v] = true
		}
	}
	if len(all) != 800 {
		t.Fatalf("values = %d", len(all))
	}
}

func TestCatalogLifecycle(t *testing.T) {
	c := NewCatalog()
	if c.Exists("t") {
		t.Fatal("empty catalog has t")
	}
	if _, err := c.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("T", testSchema()); err == nil {
		t.Fatal("case-insensitive duplicate accepted")
	}
	if err := c.CreateView("t", "SELECT 1"); err == nil {
		t.Fatal("view over table name accepted")
	}
	if _, ok := c.Table("T"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if err := c.CreateView("v", "SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("v", testSchema()); err == nil {
		t.Fatal("table over view name accepted")
	}
	if _, err := c.CreateSequence("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSequence("s"); err == nil {
		t.Fatal("duplicate sequence accepted")
	}
	for _, n := range []string{"t", "v", "s"} {
		if !c.Exists(n) {
			t.Errorf("%s missing", n)
		}
	}
	if got := c.TableNames(); len(got) != 1 || got[0] != "t" {
		t.Errorf("TableNames = %v", got)
	}
	if got := c.ViewNames(); len(got) != 1 || got[0] != "v" {
		t.Errorf("ViewNames = %v", got)
	}
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("t"); err == nil {
		t.Fatal("double drop accepted")
	}
	if err := c.DropView("v"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropSequence("s"); err != nil {
		t.Fatal(err)
	}
	if c.Exists("t") || c.Exists("v") || c.Exists("s") {
		t.Fatal("dropped objects still exist")
	}
}

func TestDropMissing(t *testing.T) {
	c := NewCatalog()
	if err := c.DropView("nope"); err == nil {
		t.Error("DropView on missing must fail")
	}
	if err := c.DropSequence("nope"); err == nil {
		t.Error("DropSequence on missing must fail")
	}
}

// TestConcurrentSnapshotAndInsert pins down the two aliasing contracts
// readers depend on (run under -race): a Snapshot is a stable prefix
// that concurrent PublishAppend calls never move or mutate, and an index
// Lookup taken mid-append only ever surfaces fully-inserted rows whose
// indexed column actually matches the key.
func TestConcurrentSnapshotAndInsert(t *testing.T) {
	c := NewCatalog()
	tab := NewTable("t", testSchema())
	ix, err := tab.CreateIndex("t_a", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Row i is (i%8, "v<i%8>"): every row with the same a shares one
	// index bucket, so buckets grow while readers walk them.
	mk := func(i int) schema.Row {
		return schema.Row{value.NewInt(int64(i % 8)), value.NewString("v" + string(rune('0'+i%8)))}
	}
	const (
		batches   = 64
		batchSize = 16
		readers   = 4
	)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				snap := tab.Snapshot()
				for i, row := range snap {
					want := int64(i % 8)
					if got := row[0].Int(); got != want {
						t.Errorf("snapshot[%d].a = %d, want %d", i, got, want)
						return
					}
				}
				key := value.NewInt(int64((seed + n) % 8)).Key()
				for _, row := range tab.Lookup(ix, key) {
					if row[0].Key() != key {
						t.Errorf("Lookup(%q) returned row with a = %v", key, row[0])
						return
					}
				}
			}
		}(r)
	}
	next := 0
	for b := 0; b < batches; b++ {
		rows := make([]schema.Row, batchSize)
		for i := range rows {
			rows[i] = mk(next)
			next++
		}
		publish(c, tab, false, rows...)
	}
	close(done)
	wg.Wait()
	if liveLen(c, tab) != batches*batchSize {
		t.Fatalf("Len = %d, want %d", liveLen(c, tab), batches*batchSize)
	}
	// Every bucket is complete once the writers stop.
	for a := 0; a < 8; a++ {
		got := len(tab.Lookup(ix, value.NewInt(int64(a)).Key()))
		if got != batches*batchSize/8 {
			t.Fatalf("bucket %d has %d rows, want %d", a, got, batches*batchSize/8)
		}
	}
}

// TestPruneReleasesSupersededState checks that pruning zeroes the slots
// it vacates: a superseded name map left past the history's length
// keeps every table it names reachable — dropped ones with all their
// rows — and a superseded row generation keeps its rows and indexes.
func TestPruneReleasesSupersededState(t *testing.T) {
	c := NewCatalog()
	c.EnableHistory()
	for _, name := range []string{"a", "b", "c"} {
		if _, err := c.CreateTable(name, testSchema()); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.past) != 3 {
		t.Fatalf("history holds %d states after three DDLs, want 3", len(c.past))
	}
	c.PruneHistory(c.Stamps().Visible())
	if len(c.past) != 0 {
		t.Fatalf("history holds %d states after pruning to the watermark", len(c.past))
	}
	for i, p := range c.past[:cap(c.past)] {
		if p.tabs != nil {
			t.Errorf("pruned name-map slot %d still references %d table(s)", i, len(p.tabs))
		}
	}

	tab, _ := c.Table("a")
	row := schema.Row{value.NewInt(1), value.NewString("x")}
	tab.PublishReplace(10, []schema.Row{row}, 0)
	tab.PublishReplace(11, []schema.Row{row, row}, 0)
	tab.PublishAppend(12, nil, 12)
	if len(tab.hist) != 0 {
		t.Fatalf("table keeps %d superseded generations past the low-water mark", len(tab.hist))
	}
	for i, g := range tab.hist[:cap(tab.hist)] {
		if g.rows != nil || g.indexes != nil {
			t.Errorf("pruned generation slot %d still references its rows or indexes", i)
		}
	}
}
