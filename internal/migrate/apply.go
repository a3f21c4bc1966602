package migrate

import (
	"fmt"

	"scooter/internal/parser"
	"scooter/internal/schema"
	"scooter/internal/store"
)

// Apply runs a named migration exactly once, durably. It is the
// crash-safe sibling of VerifyAndExecute: the journal entry is written
// before the first command executes and advanced after each command, and
// every journal write flows through the store's durability layer after
// the command's own mutations. A process killed mid-script therefore
// recovers to a consistent prefix — the journal's Applied count never
// exceeds what the data reflects — and the next Apply of the same script
// verifies it again and resumes at the first unapplied command.
//
// With opts.Online the AddField sweeps run batched and watermarked (see
// online.go), and a crash resumes mid-command at entry.Watermark rather
// than re-sweeping the collection. Either way install receives the
// post-migration schema and the window of the AddFields still to run
// before any data changes, rebuilt from the journal on a resumed run.
//
// The returned schema is the state after this script. When the script was
// already fully applied (applied=false), the schema effects are recomputed
// structurally so sequential replay of a migration history over a
// recovered database converges to the same schema; install is not called.
func Apply(db *store.DB, before *schema.Schema, name, src string, opts Options, install Install) (after *schema.Schema, applied bool, err error) {
	journal := NewJournal(db)
	journal.Clock = opts.Clock

	switch journal.Check(name, src) {
	case StatusConflict:
		return nil, false, &ErrJournalConflict{Name: name}
	case StatusApplied:
		// The script already ran. Two legitimate callers land here: a
		// sequential history replay whose schema predates the script (the
		// effects re-apply structurally), and a workspace whose schema was
		// restored already containing them (re-application fails its
		// structural checks — model/field exists — and the schema is
		// correct as-is). Commands that re-apply cleanly in the second
		// case (policy updates) are idempotent, so both paths converge.
		after, err := replaySchema(before, src, opts)
		if err != nil {
			return before, false, nil
		}
		return after, false, nil
	}

	script, err := parser.ParseMigration(src)
	if err != nil {
		return nil, false, err
	}
	plan, err := Verify(before, script, opts)
	if err != nil {
		return nil, false, err
	}
	id, err := journal.Begin(name, src, len(script.Commands))
	if err != nil {
		return nil, false, err
	}
	entry, ok := journal.Lookup(name)
	if !ok {
		return nil, false, fmt.Errorf("migrate: journal entry for %q vanished", name)
	}
	start := entry.Applied
	if start > len(script.Commands) {
		return nil, false, fmt.Errorf("migrate: journal claims %d applied commands, script has %d", start, len(script.Commands))
	}
	if opts.OnPlanned != nil {
		if err := opts.OnPlanned(plan.After); err != nil {
			return nil, false, err
		}
	}
	// The entry's AppliedAt (not the current clock) anchors now(): Begin
	// preserves it across a crash, so a resumed run evaluates now() in the
	// remaining commands to the same instant the original run used and the
	// recovered state converges byte-identically.
	err = execute(plan, db, start, entry.Watermark, entry.AppliedAt, opts, install, func(applied int, watermark store.ID) error {
		if watermark == store.Nil {
			return journal.Progress(id, applied)
		}
		return journal.ProgressBackfill(id, watermark)
	})
	if err != nil {
		return nil, false, err
	}
	if err := journal.Finish(id, len(script.Commands)); err != nil {
		return nil, false, err
	}
	// The finish mark, like every mutation above, is durable before Apply
	// acknowledges; a lost-durability log fails the migration here rather
	// than claiming success.
	if err := db.DurabilityErr(); err != nil {
		return nil, false, err
	}
	return plan.After, true, nil
}

// replaySchema recomputes the schema effects of an already-applied script
// without re-proving or re-executing it.
func replaySchema(before *schema.Schema, src string, opts Options) (*schema.Schema, error) {
	script, err := parser.ParseMigration(src)
	if err != nil {
		return nil, err
	}
	opts.SkipVerification = true
	plan, err := Verify(before, script, opts)
	if err != nil {
		return nil, err
	}
	return plan.After, nil
}
