// Package postproc implements the paper's postprocessor (§4.4): it
// stores the core operator's encoded rules into the DBMS and decodes
// them, through the Bset/Hset dictionaries, into the user-readable
// normalized output tables <name>, <name>_Bodies and <name>_Heads.
package postproc

import (
	"context"
	"fmt"

	"minerule/internal/kernel/translator"
	"minerule/internal/mining"
	"minerule/internal/resource"
	"minerule/internal/sql/engine"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/value"
)

// EmptyItemsetError reports a mined rule whose body or head carries no
// items. Such a rule must not be stored: interning the empty itemset
// would hand out an id with zero dictionary rows, and the Decode join
// over <name>_Bodies/<name>_Heads would then silently drop the rule
// from the user-readable tables. The core boundary rejects it instead.
type EmptyItemsetError struct {
	Rule int    // index of the offending rule in the core result
	Side string // "body" or "head"
}

func (e *EmptyItemsetError) Error() string {
	return fmt.Sprintf("postproc: rule %d has an empty %s; MINE RULE itemsets must be non-empty", e.Rule, e.Side)
}

// StoreEncoded writes the core operator's result into the encoded output
// tables (OutputRules, OutputBodies, OutputHeads) the preprocessor
// created. Bodies and heads are dictionary-compressed: identical
// itemsets across rules share one identifier, as §4.4's normalized form
// intends. The three tables fill in one transaction, so they become
// visible together at one commit stamp — the paper's core operator
// likewise hands its result to the DBMS without re-parsing SQL, and the
// result carries the DBMS's guarantees. Rules with an empty body or
// head fail with *EmptyItemsetError before anything is written.
func StoreEncoded(ctx context.Context, db *engine.Database, tr *translator.Translation, rules []mining.Rule) error {
	if err := resource.Check(ctx); err != nil {
		return fmt.Errorf("postproc: %w", err)
	}

	bodyIDs := make(map[string]int64)
	headIDs := make(map[string]int64)
	var ruleRows, bodyRows, headRows []schema.Row

	intern := func(ids map[string]int64, items []mining.Item, rows *[]schema.Row) int64 {
		k := itemsKey(items)
		if id, ok := ids[k]; ok {
			return id
		}
		id := int64(len(ids) + 1)
		ids[k] = id
		for _, it := range items {
			*rows = append(*rows, schema.Row{value.NewInt(id), value.NewInt(int64(it))})
		}
		return id
	}

	for i, r := range rules {
		if len(r.Body) == 0 {
			return &EmptyItemsetError{Rule: i, Side: "body"}
		}
		if len(r.Head) == 0 {
			return &EmptyItemsetError{Rule: i, Side: "head"}
		}
		bid := intern(bodyIDs, r.Body, &bodyRows)
		hid := intern(headIDs, r.Head, &headRows)
		ruleRows = append(ruleRows, schema.Row{
			value.NewInt(bid),
			value.NewInt(hid),
			value.NewFloat(r.Support),
			value.NewFloat(r.Confidence),
		})
	}
	n := tr.Names
	if err := db.AppendRows(ctx,
		engine.TableRows{Table: n.OutputRules, Rows: ruleRows},
		engine.TableRows{Table: n.OutputBodies, Rows: bodyRows},
		engine.TableRows{Table: n.OutputHeads, Rows: headRows},
	); err != nil {
		return fmt.Errorf("postproc: %w", err)
	}
	return nil
}

func itemsKey(items []mining.Item) string {
	b := make([]byte, 0, len(items)*4)
	for _, it := range items {
		v := uint64(it)
		for v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		b = append(b, byte(v))
	}
	return string(b)
}

// Decode runs the translator's decode programs, producing the
// user-readable output tables. The programs run inside one explicit
// transaction on their own connection, so the decoded rows of all three
// tables become visible at a single commit stamp: a concurrent reader
// never sees a rule whose body or head rows are not there yet. The
// CREATE TABLE statements among them are DDL, which takes effect at
// once and is not undone by the rollback a failure triggers (see
// txn.Txn); the caller drops the output tables of a failed run.
func Decode(ctx context.Context, db *engine.Database, tr *translator.Translation) error {
	c := db.Conn()
	defer c.Close() // rolls back unless COMMIT ran
	for _, q := range append(append([]string{"BEGIN"}, tr.Program.Decode...), "COMMIT") {
		if _, err := c.ExecContext(ctx, q); err != nil {
			return fmt.Errorf("postproc: %w", err)
		}
	}
	return nil
}
