package txn_dup_test

import (
	"context"
	"testing"

	"minerule/internal/obsv"
	"minerule/internal/sql/engine"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/storage"
	"minerule/internal/sql/txn"
	"minerule/internal/sql/value"
)

func TestDropRecreateInsertDup(t *testing.T) {
	db := engine.New()
	c := db.Conn()
	mustExec := func(sql string) {
		if _, err := c.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("BEGIN")
	mustExec("CREATE TABLE t (a int)")
	mustExec("INSERT INTO t VALUES (1)")
	mustExec("DROP TABLE t")
	mustExec("CREATE TABLE t (a int)")
	mustExec("INSERT INTO t VALUES (2)")
	mustExec("COMMIT")
	res, err := db.Query("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 row, got %d: %v", len(res.Rows), res.Rows)
	}
}

// TestSavepointBeforeDropRecreate: a savepoint taken before the drop
// still addresses the write order by position, so rolling back to it
// discards the re-created table's overlay; the DDL itself stands.
func TestSavepointBeforeDropRecreate(t *testing.T) {
	ctx := context.Background()
	m := txn.NewManager(storage.NewCatalog(), nil, &obsv.Metrics{}, 0)
	sch := func() *schema.Schema { return schema.New("t", schema.Column{Name: "a", Type: value.TypeInt}) }
	insert := func(tx *txn.Txn, v int64) {
		tab, ok, err := tx.ForWrite(ctx, "t")
		if err != nil || !ok {
			t.Fatalf("ForWrite: ok=%v err=%v", ok, err)
		}
		if err := tx.InsertRows(tab, []schema.Row{{value.NewInt(v)}}); err != nil {
			t.Fatal(err)
		}
	}

	tx := m.Begin()
	defer m.Release(tx)
	if _, err := tx.CreateTable(ctx, "t", sch()); err != nil {
		t.Fatal(err)
	}
	insert(tx, 1)
	sp := tx.Savepoint()
	if err := tx.DropTable(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateTable(ctx, "t", sch()); err != nil {
		t.Fatal(err)
	}
	insert(tx, 2)
	tx.RollbackTo(sp)
	insert(tx, 3)
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	r := m.Begin()
	defer m.Release(r)
	tab, ok := r.Table("t")
	if !ok {
		t.Fatal("table t not visible after commit")
	}
	if n := r.Len(tab); n != 1 {
		t.Fatalf("want 1 row (the insert after the rollback), got %d", n)
	}
}
