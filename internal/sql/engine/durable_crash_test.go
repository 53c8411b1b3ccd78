package engine

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"minerule/internal/fault"
	"minerule/internal/resource"
	"minerule/internal/sql/wal"
)

// prefixModel is what a WAL prefix says the catalog must look like.
type prefixModel struct {
	rows    map[string]int   // live table → row count
	indexes map[string]bool  // live index names
	seqs    map[string]int64 // live sequence → restored next value
}

func modelOf(t *testing.T, prefix []byte) prefixModel {
	t.Helper()
	m := prefixModel{rows: map[string]int{}, indexes: map[string]bool{}, seqs: map[string]int64{}}
	_, _, err := wal.ReplayBytes(prefix, func(r *wal.Record) error {
		switch r.Kind {
		case wal.KindCreateTable:
			m.rows[r.Name] = 0
		case wal.KindDropTable:
			delete(m.rows, r.Name)
		case wal.KindInsert:
			m.rows[r.Name] += len(r.Rows)
		case wal.KindTruncate:
			m.rows[r.Name] = 0
		case wal.KindReplace:
			m.rows[r.Name] = len(r.Rows)
		case wal.KindCreateIndex:
			m.indexes[r.Name] = true
		case wal.KindDropIndex:
			delete(m.indexes, r.Name)
		case wal.KindCreateSequence:
			m.seqs[r.Name] = 1
		case wal.KindDropSequence:
			delete(m.seqs, r.Name)
		case wal.KindSeqBump:
			m.seqs[r.Name] = r.Next
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWALPrefixProperty replays every record-boundary prefix of a real
// log and checks the recovered catalog against the model the prefix
// describes: row counts, index membership and contents, sequence
// ceilings, and that a second replay of the same prefix is a no-op.
func TestWALPrefixProperty(t *testing.T) {
	base := t.TempDir()
	db := openDurable(t, base)
	if err := db.ExecScript(durableSeed); err != nil {
		t.Fatal(err)
	}
	seq, _ := db.Catalog().Sequence("rid")
	seq.NextVal() // force a SeqBump record into the log
	if _, err := db.Exec("UPDATE Purchase SET price = 20.0 WHERE item = 'col_shirts'"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	logBytes, err := os.ReadFile(filepath.Join(base, "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	bounds := append([]int64{0}, wal.Boundaries(logBytes)...)

	for _, end := range bounds {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "gen-1"), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"CURRENT", filepath.Join("gen-1", "catalog.json")} {
			b, err := os.ReadFile(filepath.Join(base, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "wal-1.log"), logBytes[:end], 0o644); err != nil {
			t.Fatal(err)
		}

		want := modelOf(t, logBytes[:end])
		rec := openDurable(t, dir)
		for name, rows := range want.rows {
			tab, ok := rec.Catalog().Table(name)
			if !ok {
				t.Fatalf("@%d: table %s missing", end, name)
			}
			if n := tab.LenAt(rec.cat.Stamps().Visible()); n != rows {
				t.Fatalf("@%d: %s has %d rows, want %d", end, name, n, rows)
			}
			// Index contents must agree with a full scan: every row is
			// reachable through its bucket, nothing else is.
			for _, ix := range tab.Indexes() {
				counts := map[string]int{}
				for _, row := range tab.Snapshot() {
					if !row[ix.Column()].IsNull() {
						counts[row[ix.Column()].Key()]++
					}
				}
				for key, n := range counts {
					if got := len(tab.Lookup(ix, key)); got != n {
						t.Fatalf("@%d: index %s bucket %q has %d rows, scan says %d",
							end, ix.Name(), key, got, n)
					}
				}
			}
		}
		for name := range want.indexes {
			if !rec.Catalog().HasIndex(name) {
				t.Fatalf("@%d: index %s missing", end, name)
			}
		}
		for name, next := range want.seqs {
			seq, ok := rec.Catalog().Sequence(name)
			if !ok {
				t.Fatalf("@%d: sequence %s missing", end, name)
			}
			if seq.CurrentVal() != next {
				t.Fatalf("@%d: sequence %s at %d, want %d", end, name, seq.CurrentVal(), next)
			}
		}

		// Replaying the prefix again over the live catalog changes nothing.
		verBefore := rec.Catalog().Version()
		rec.cat.SetJournal(nil)
		if _, _, err := rec.store.replayLog(); err != nil {
			t.Fatalf("@%d: second replay: %v", end, err)
		}
		rec.cat.SetJournal(rec.store)
		if rec.Catalog().Version() != verBefore {
			t.Fatalf("@%d: second replay bumped the version", end)
		}
		for name, rows := range want.rows {
			if tab, _ := rec.Catalog().Table(name); tab.LenAt(rec.cat.Stamps().Visible()) != rows {
				t.Fatalf("@%d: second replay changed %s to %d rows", end, name, tab.LenAt(rec.cat.Stamps().Visible()))
			}
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMidRunCrash kills the WAL writer mid-frame with a fault.WriteGate:
// the statement fails with an I/O error, the store goes sticky, and a
// reopen of the directory recovers exactly the pre-crash state.
func TestMidRunCrash(t *testing.T) {
	for _, keep := range []int{0, 1, 7, 1 << 20} {
		// With keep below the 8-byte frame header the record is torn and
		// the insert must vanish; with the whole frame kept (1<<20 clamps
		// to the frame length) the row is durable even though the client
		// never saw the commit — both are legal crash outcomes.
		wantRows := int64(3)
		if keep == 1<<20 {
			wantRows = 4
		}
		dir := t.TempDir()
		db := openDurable(t, dir)
		if err := db.ExecScript(durableSeed); err != nil {
			t.Fatal(err)
		}
		gate := fault.NewWriteGate()
		gate.KillNth(1, keep)
		db.store.w.WriteHook = gate.Hook()

		_, err := db.Exec("INSERT INTO Purchase VALUES (4, 'parkas', 90.0)")
		if err == nil {
			t.Fatalf("keep=%d: write survived the crash", keep)
		}
		if !errors.Is(err, resource.ErrIO) {
			t.Fatalf("keep=%d: crash error is not ErrIO: %v", keep, err)
		}
		if !gate.Fired() {
			t.Fatalf("keep=%d: gate never fired", keep)
		}
		// The process is dead: every later statement fails too.
		if _, err := db.Exec("INSERT INTO Purchase VALUES (5, 'scarves', 10.0)"); err == nil {
			t.Fatalf("keep=%d: store accepted writes after the crash", keep)
		}

		// No Close: reopen over the torn file, as after a real kill.
		db2 := openDurable(t, dir)
		if got := countRows(t, db2, "Purchase"); got != wantRows {
			t.Fatalf("keep=%d: recovered %d rows, want %d", keep, got, wantRows)
		}
		if _, err := db2.Exec("INSERT INTO Purchase VALUES (6, 'gloves', 15.0)"); err != nil {
			t.Fatalf("keep=%d: recovered database rejects writes: %v", keep, err)
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
